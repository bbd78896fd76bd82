package array

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"cactid/internal/circuit"
	"cactid/internal/mat"
	"cactid/internal/tech"
)

// The mat-stage table. Three of the enumeration's per-slot models
// depend only on the technology, the RAM type and the port count:
// the mux-independent mat model (mat.NewShared), the tightened shard
// lower bound (mat.NewShardLB), both per (rows, cols) slot, and the
// mux-dependent circuit blocks (mat.Shared.MuxParts) per (cols, mux)
// slot. Capacity, output width, associativity, access mode, page
// size, slack and sleep transistors never enter them. One
// process-wide table keyed by exactly those three inputs lets every
// solve after the first reuse the grid's circuit models instead of
// rebuilding them; the spec-dependent memos (exact point metrics, the
// margin memo and the bounder) live on buildCtx, behind a prescan the
// points of one sweep may share.

// matTableCap bounds the table's entry count. node_nm accepts
// interpolated nodes and library callers may build their own
// Technology values, so the key space is open; on overflow the whole
// table is cleared, since a missing entry costs about one solve to
// rebuild. A fully filled entry holds 41-47 KB of heap (measured, see
// DESIGN.md §1.2d), so the cap bounds the table near 12 MB.
const matTableCap = 256

// matKey is the table key: the node, the RAM type and the port count
// (< 1 means 1, as in mat). Its bucket holds one entry per Technology
// value, told apart by == on the entry's own copy, which compares every
// device, wire and cell field: two solves share an entry exactly when
// their tables are equal value for value. (A NaN field would miss on
// every lookup, and == equates a negative zero with a positive one;
// the provider tables hold neither, which the MatTable tests pin.)
type matKey struct {
	node  tech.Node
	ram   tech.RAMType
	ports int
}

// matStage is one table entry: the spec-independent slot arrays of
// the enumeration grid, filled lazily by whichever solve first needs
// a slot. Every slot holds a pure function of the key and its grid
// position, so slots are published with atomic pointers and racing
// builders' last write wins benignly.
type matStage struct {
	// tech is the entry's private copy of the key's Technology. Every
	// slot builds from it, never from a caller's pointer: a cached
	// mat.Shared evaluates MuxParts later through its Config.Tech,
	// and a caller that edits its Technology after a solve must not
	// change a later solve of the original value. The copy never
	// leaves the table: enumerated and probe-built banks point their
	// Mat at the caller's Technology, so no caller can write to it.
	tech  tech.Technology
	ram   tech.RAMType
	ports int

	// outDrv is the bank-edge output driver, sized from the cell's
	// peripheral device, which the key fixes.
	outDrv circuit.Result

	// shared holds the mux-independent mat model (or its error) per
	// (rows, cols) slot.
	shared []atomic.Pointer[sharedEntry]

	// shardLB holds the tightened closed-form shard bounds per
	// (rows, cols) slot.
	shardLB []atomic.Pointer[mat.ShardLB]

	// muxParts holds the sense-amp strip and column-select decoder
	// per (cols, mux) slot: they depend on the column width and mux
	// degree but not on rows, so one slot serves all nine row counts.
	muxParts []atomic.Pointer[mat.MuxParts]
}

type sharedEntry struct {
	sh  *mat.Shared
	err error
}

// matTable maps each key to its bucket of entries; n counts the
// entries of all buckets.
var matTable struct {
	mu sync.Mutex
	m  map[matKey][]*matStage // guarded by mu
	n  int                    // guarded by mu
}

// Process-wide table counters: lookups that found their entry,
// lookups that created one, and overflow clears.
var matTableHits, matTableMisses, matTableClears atomic.Int64

// MatTableStats is a snapshot of the mat-stage table's counters.
type MatTableStats struct {
	Hits   int64 // lookups served by an existing entry
	Misses int64 // lookups that created an entry
	Clears int64 // overflow clears of the whole table
}

// MatTableCounters returns the process-wide mat-stage table counters.
func MatTableCounters() MatTableStats {
	return MatTableStats{
		Hits:   matTableHits.Load(),
		Misses: matTableMisses.Load(),
		Clears: matTableClears.Load(),
	}
}

// matStageFor returns the table entry of (t's value, ram, ports),
// creating an empty one on a miss. It keeps no pointer of the caller's.
func matStageFor(t *tech.Technology, ram tech.RAMType, ports int) *matStage {
	k := matKey{node: t.Node, ram: ram, ports: max(1, ports)}
	matTable.mu.Lock()
	defer matTable.mu.Unlock()
	for _, st := range matTable.m[k] {
		if st.tech == *t {
			matTableHits.Add(1)
			return st
		}
	}
	matTableMisses.Add(1)
	if matTable.m == nil || matTable.n >= matTableCap {
		if matTable.m != nil {
			matTableClears.Add(1)
		}
		matTable.m, matTable.n = make(map[matKey][]*matStage), 0
	}
	st := &matStage{
		tech:     *t,
		ram:      k.ram,
		ports:    k.ports,
		shared:   make([]atomic.Pointer[sharedEntry], len(enumRows)*len(enumCols)),
		shardLB:  make([]atomic.Pointer[mat.ShardLB], len(enumRows)*len(enumCols)),
		muxParts: make([]atomic.Pointer[mat.MuxParts], len(enumCols)*len(enumMux)),
	}
	st.outDrv = bankDriver(st.tech.Device(st.tech.Cell(ram).PeripheralDevice))
	matTable.m[k] = append(matTable.m[k], st)
	matTable.n++
	return st
}

// The slot accessors index the grid positionally: rows, cols and mux
// must lie on the enumeration grid (Prescanned.Build routes any other
// organization to the package-level Build).

// sharedFor returns the mux-independent mat model of a (rows, cols)
// grid slot, computing and publishing it on first use.
func (st *matStage) sharedFor(rows, cols int) (*mat.Shared, error) {
	slot := &st.shared[slotOf(rows, cols)]
	if e := slot.Load(); e != nil {
		return e.sh, e.err
	}
	sh, err := mat.NewShared(mat.Config{
		Tech: &st.tech, RAM: st.ram,
		Rows: rows, Cols: cols, Ports: st.ports,
	})
	slot.Store(&sharedEntry{sh: sh, err: err})
	return sh, err
}

// shardLBFor returns the tightened shard lower bound of a (rows, cols)
// grid slot, computing and publishing it on first use.
func (st *matStage) shardLBFor(rows, cols int) *mat.ShardLB {
	slot := &st.shardLB[slotOf(rows, cols)]
	if lb := slot.Load(); lb != nil {
		return lb
	}
	lb := mat.NewShardLB(&st.tech, st.ram, st.ports, rows, cols)
	slot.Store(&lb)
	return &lb
}

// muxPartsFor returns the mux-dependent circuit blocks of a (cols, mux)
// grid slot, computing and publishing them on first use. sh must be
// this entry's model of some (rows, cols) slot.
func (st *matStage) muxPartsFor(sh *mat.Shared, cols, mux int) *mat.MuxParts {
	// enumCols starts at 32 = 2^5 and enumMux at 1 = 2^0; both are
	// powers of two, so the slot index is positional in the grid.
	ci := bits.TrailingZeros(uint(cols)) - 5
	mi := bits.TrailingZeros(uint(mux))
	slot := &st.muxParts[ci*len(enumMux)+mi]
	if p := slot.Load(); p != nil {
		return p
	}
	p := sh.MuxParts(mux)
	slot.Store(&p)
	return &p
}
