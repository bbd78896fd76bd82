// Package memctl models the main-memory subsystem of the LLC study:
// two channels, each a single-ranked DIMM of x8 DDR devices, with
// per-bank row-buffer tracking, open or closed page policy
// (Section 2.1), multibank interleaving (tRRD), and shared data-bus
// occupancy. Timing parameters come from the CACTI-D DRAM chip model.
package memctl

// PagePolicy selects between keeping rows open for locality and
// proactively closing them (Section 2.1).
type PagePolicy int

const (
	ClosedPage PagePolicy = iota
	OpenPage
)

func (p PagePolicy) String() string {
	if p == OpenPage {
		return "open-page"
	}
	return "closed-page"
}

// Timing holds the controller's view of device timing, in CPU cycles.
type Timing struct {
	TRCD, CAS, TRP, TRAS, TRC, TRRD, Burst int64
}

// Config describes the memory subsystem.
type Config struct {
	Channels        int
	BanksPerChannel int
	PageBytes       int64 // row-buffer footprint per channel (page bits x chips / 8)
	LineBytes       int64
	Policy          PagePolicy
	Timing          Timing

	// PowerDown enables the DRAM power-down mode the paper's
	// conclusion points to: after PowerDownAfter idle cycles a
	// channel's rank enters power-down; the next request pays
	// WakeupCycles. The controller reports the powered-down cycles
	// so the power model can discount standby power.
	PowerDown      bool
	PowerDownAfter int64
	WakeupCycles   int64
}

// Stats counts controller events for the power model. Activates and
// Precharges count DIMM-rank operations (all chips of the rank act
// together); Reads/Writes count line transfers.
type Stats struct {
	Reads, Writes       uint64
	Activates           uint64
	RowHits, RowMisses  uint64
	BusBytes            uint64
	TotalReadLatencyCyc uint64 // sum of read latencies (cycles)
	QueueWaitCyc        uint64

	// Power-down bookkeeping (channel-cycles spent powered down, and
	// wakeup events).
	PowerDownCyc uint64
	Wakeups      uint64
}

// Controller is the evaluated model. It must be accessed in
// non-decreasing request-time order (the simulator's event loop
// guarantees this approximately; small inversions are tolerated by
// the max() arbitration).
type Controller struct {
	cfg Config

	bankFree [][]int64 // [channel][bank] earliest next activate
	openRow  [][]int64 // [channel][bank] open row id (-1 = closed)
	busFree  []int64   // [channel]
	actFree  []int64   // [channel] tRRD gate
	lastDone []int64   // [channel] last activity, for power-down

	Stats Stats
}

// New builds a controller.
func New(cfg Config) *Controller {
	if cfg.Channels <= 0 || cfg.BanksPerChannel <= 0 || cfg.LineBytes <= 0 || cfg.PageBytes <= 0 {
		panic("memctl: bad config")
	}
	c := &Controller{cfg: cfg}
	c.bankFree = make([][]int64, cfg.Channels)
	c.openRow = make([][]int64, cfg.Channels)
	for i := range c.bankFree {
		c.bankFree[i] = make([]int64, cfg.BanksPerChannel)
		c.openRow[i] = make([]int64, cfg.BanksPerChannel)
		for b := range c.openRow[i] {
			c.openRow[i][b] = -1
		}
	}
	c.busFree = make([]int64, cfg.Channels)
	c.actFree = make([]int64, cfg.Channels)
	c.lastDone = make([]int64, cfg.Channels)
	return c
}

// route maps a line address to (channel, bank, row).
func (c *Controller) route(addr uint64) (ch, bank int, row int64) {
	line := addr / uint64(c.cfg.LineBytes)
	ch = int(line % uint64(c.cfg.Channels))
	rowGlobal := addr / uint64(c.cfg.PageBytes)
	// Hash the bank index from the page number so that strided or
	// clustered access patterns still spread across banks
	// (permutation-based interleaving, as real controllers do). A
	// multiplicative mix avalanches far better than simple XOR
	// folding.
	hashed := rowGlobal * 0x9E3779B97F4A7C15
	bank = int((hashed >> 32) % uint64(c.cfg.BanksPerChannel))
	// The row id must uniquely identify the page within its bank;
	// the global page number does.
	row = int64(rowGlobal)
	return ch, bank, row
}

// Access issues a line read or write at CPU-cycle time now and
// returns the completion time. Contention (bank busy, tRRD, data bus)
// is accounted via resource free-times.
func (c *Controller) Access(addr uint64, write bool, now int64) int64 {
	t := &c.cfg.Timing
	ch, bank, row := c.route(addr)

	// Power-down: a rank idle beyond the threshold sleeps until this
	// request wakes it (paying the exit latency).
	if c.cfg.PowerDown && now > c.lastDone[ch] {
		if idle := now - c.lastDone[ch]; idle > c.cfg.PowerDownAfter {
			c.Stats.PowerDownCyc += uint64(idle - c.cfg.PowerDownAfter)
			c.Stats.Wakeups++
			now += c.cfg.WakeupCycles
		}
	}

	start := now
	if bf := c.bankFree[ch][bank]; bf > start {
		start = bf
	}

	var ready int64 // when data can start on the bus
	switch {
	case c.cfg.Policy == OpenPage && c.openRow[ch][bank] == row:
		// Row hit: CAS only.
		c.Stats.RowHits++
		ready = start + t.CAS
		c.bankFree[ch][bank] = start + t.CAS
	case c.cfg.Policy == OpenPage && c.openRow[ch][bank] >= 0:
		// Row conflict: precharge, activate, CAS.
		c.Stats.RowMisses++
		c.Stats.Activates++
		actAt := max(start+t.TRP, c.actFree[ch])
		c.actFree[ch] = actAt + t.TRRD
		ready = actAt + t.TRCD + t.CAS
		c.openRow[ch][bank] = row
		c.bankFree[ch][bank] = actAt + t.TRAS
	default:
		// Closed bank (or closed-page policy): activate, CAS.
		c.Stats.Activates++
		actAt := max(start, c.actFree[ch])
		c.actFree[ch] = actAt + t.TRRD
		ready = actAt + t.TRCD + t.CAS
		if c.cfg.Policy == OpenPage {
			c.openRow[ch][bank] = row
			c.bankFree[ch][bank] = actAt + t.TRAS
		} else {
			// Auto-precharge after the access.
			c.bankFree[ch][bank] = actAt + t.TRC
		}
	}

	busAt := max(ready, c.busFree[ch])
	done := busAt + t.Burst
	c.busFree[ch] = done
	c.Stats.QueueWaitCyc += uint64(busAt - ready + start - now)

	if write {
		c.Stats.Writes++
	} else {
		c.Stats.Reads++
		c.Stats.TotalReadLatencyCyc += uint64(done - now)
	}
	c.Stats.BusBytes += uint64(c.cfg.LineBytes)
	if done > c.lastDone[ch] {
		c.lastDone[ch] = done
	}
	return done
}
