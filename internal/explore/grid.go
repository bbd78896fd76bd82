// Package explore turns the CACTI-D solver into a scalable batch
// engine: a sweep planner that expands parameter grids into concrete
// core.Spec jobs, a parallel worker pool with a fingerprint-keyed
// result cache, a Pareto-frontier extractor over the four solver
// objectives, and CSV/JSON exporters. It is the layer between the
// analytical model (internal/core) and the outside world — the
// cactid-serve HTTP API and the CLIs build on it.
package explore

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"cactid/internal/core"
	"cactid/internal/tech"
)

// ParseSize parses a human-readable capacity: plain bytes ("64"), an
// explicit byte suffix ("512B", binary "32KB"/"4MB"/"2GB", case
// insensitive), or gigabits ("1G", "2Gbit") for main-memory chips.
// Non-positive, sub-byte and overflowing sizes are rejected.
func ParseSize(s string) (int64, error) {
	orig := s
	s = strings.TrimSpace(s)
	up := strings.ToUpper(s)
	mult := int64(1)
	switch {
	case strings.HasSuffix(up, "GBIT"):
		mult, s = (1<<30)/8, s[:len(s)-4]
	case strings.HasSuffix(up, "GB"):
		mult, s = 1<<30, s[:len(s)-2]
	case strings.HasSuffix(up, "MB"):
		mult, s = 1<<20, s[:len(s)-2]
	case strings.HasSuffix(up, "KB"):
		mult, s = 1<<10, s[:len(s)-2]
	case strings.HasSuffix(up, "G"):
		mult, s = (1<<30)/8, s[:len(s)-1]
	case strings.HasSuffix(up, "B"):
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", orig)
	}
	if math.IsNaN(v) || v <= 0 {
		return 0, fmt.Errorf("size %q must be positive", orig)
	}
	bytes := v * float64(mult)
	if bytes >= math.MaxInt64 {
		return 0, fmt.Errorf("size %q overflows", orig)
	}
	if bytes < 1 {
		return 0, fmt.Errorf("size %q is under one byte", orig)
	}
	return int64(bytes), nil
}

// ParseRAM parses a memory technology name.
func ParseRAM(s string) (tech.RAMType, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "sram":
		return tech.SRAM, nil
	case "lp-dram", "lpdram", "lp":
		return tech.LPDRAM, nil
	case "comm-dram", "commdram", "comm", "cm":
		return tech.COMMDRAM, nil
	}
	return 0, fmt.Errorf("unknown RAM type %q (sram, lp-dram, comm-dram)", s)
}

// ParseMode parses an access-mode name; the empty string means
// Normal.
func ParseMode(s string) (core.AccessMode, error) {
	switch m := strings.ToLower(strings.TrimSpace(s)); {
	case m == "" || m == "normal" || m == "n":
		return core.Normal, nil
	case strings.HasPrefix(m, "seq"):
		return core.Sequential, nil
	case m == "fast" || m == "f":
		return core.Fast, nil
	}
	return 0, fmt.Errorf("unknown access mode %q (normal, sequential, fast)", s)
}

// Grid is a sweep plan: a base spec plus one slice per swept axis.
// Empty axes keep the base spec's value. Expand enumerates the cross
// product in a fixed axis order, so a grid always yields the same job
// sequence.
type Grid struct {
	Base core.Spec

	// Techs sweeps the technology provider (tech.Providers names);
	// it is the outermost axis. Values should be canonical —
	// SweepRequest.Grid canonicalises; hand-built grids can pass any
	// spelling tech.Resolve accepts and the solver canonicalises per
	// point.
	Techs      []string
	Nodes      []tech.Node
	RAMs       []tech.RAMType
	Capacities []int64
	Blocks     []int
	Assocs     []int
	Banks      []int
	Modes      []core.AccessMode
}

func orBase[T any](axis []T, base T) []T {
	if len(axis) == 0 {
		return []T{base}
	}
	return axis
}

// Points returns the number of grid points before validity filtering,
// saturating at math.MaxInt. Saturation matters: a hostile request
// with seven long axes could overflow the product to a small (or
// negative) count, slipping past the server's max-points bound and
// into an Expand whose capacity allocation would then panic.
func (g Grid) Points() int {
	n := 1
	for _, l := range []int{len(g.Techs), len(g.Nodes), len(g.RAMs), len(g.Capacities),
		len(g.Blocks), len(g.Assocs), len(g.Banks), len(g.Modes)} {
		if l > 0 {
			if n > math.MaxInt/l {
				return math.MaxInt
			}
			n *= l
		}
	}
	return n
}

// Expand enumerates the grid into concrete solver jobs, in
// deterministic axis-major order (technologies, nodes, RAM types,
// capacities, block sizes, associativities, banks, modes). Points
// that cannot form a valid organization — capacity not divisible by
// the bank count, or fewer than one set per bank — are dropped;
// skipped reports how many.
func (g Grid) Expand() (specs []core.Spec, skipped int) {
	techs := orBase(g.Techs, g.Base.Technology)
	nodes := orBase(g.Nodes, g.Base.Node)
	rams := orBase(g.RAMs, g.Base.RAM)
	caps := orBase(g.Capacities, g.Base.CapacityBytes)
	blocks := orBase(g.Blocks, g.Base.BlockBytes)
	assocs := orBase(g.Assocs, g.Base.Associativity)
	banks := orBase(g.Banks, g.Base.Banks)
	modes := orBase(g.Modes, g.Base.Mode)

	specs = make([]core.Spec, 0, g.Points())
	for _, tc := range techs {
		for _, node := range nodes {
			for _, ram := range rams {
				for _, capBytes := range caps {
					for _, block := range blocks {
						for _, assoc := range assocs {
							for _, nb := range banks {
								for _, mode := range modes {
									spec := g.Base
									spec.Technology = tc
									spec.Node, spec.RAM = node, ram
									spec.CapacityBytes, spec.BlockBytes = capBytes, block
									spec.Associativity, spec.Banks = assoc, nb
									spec.Mode = mode
									if !feasiblePoint(spec) {
										skipped++
										continue
									}
									specs = append(specs, spec)
								}
							}
						}
					}
				}
			}
		}
	}
	return specs, skipped
}

// feasiblePoint rejects grid points that can never form a valid
// organization, before they reach the solver.
func feasiblePoint(s core.Spec) bool {
	if s.CapacityBytes <= 0 || s.BlockBytes <= 0 {
		return false
	}
	nb := int64(max(s.Banks, 1))
	assoc := int64(max(s.Associativity, 1))
	if s.CapacityBytes%nb != 0 {
		return false
	}
	// At least one whole set per bank.
	return s.CapacityBytes/nb >= int64(s.BlockBytes)*assoc
}

// SpecRequest is the JSON face of core.Spec used by the HTTP API and
// example clients: technologies and modes are named, capacities are
// human-readable strings. Zero-valued fields take the same defaults
// as the cactid CLI.
type SpecRequest struct {
	RAM                  string        `json:"ram,omitempty"`
	Technology           string        `json:"tech,omitempty"`
	NodeNM               int           `json:"node_nm,omitempty"`
	Capacity             string        `json:"capacity,omitempty"`
	BlockBytes           int           `json:"block_bytes,omitempty"`
	Associativity        int           `json:"associativity,omitempty"`
	Banks                int           `json:"banks,omitempty"`
	Cache                *bool         `json:"cache,omitempty"`
	Mode                 string        `json:"mode,omitempty"`
	PageBits             int           `json:"page_bits,omitempty"`
	MaxPipelineStages    int           `json:"max_pipeline_stages,omitempty"`
	MaxAreaConstraint    float64       `json:"max_area_constraint,omitempty"`
	MaxAcctimeConstraint float64       `json:"max_acctime_constraint,omitempty"`
	MaxRepeaterSlack     float64       `json:"max_repeater_slack,omitempty"`
	SleepTransistors     bool          `json:"sleep_transistors,omitempty"`
	ECC                  bool          `json:"ecc,omitempty"`
	Ports                int           `json:"ports,omitempty"`
	IncludeBankRouting   bool          `json:"include_bank_routing,omitempty"`
	PhysicalAddressBits  int           `json:"physical_address_bits,omitempty"`
	Weights              *core.Weights `json:"weights,omitempty"`
}

// Spec compiles the request into a solver spec. The capacity may be
// left empty when a surrounding sweep supplies it per point; the
// solver rejects a zero capacity at solve time otherwise.
func (r SpecRequest) Spec() (core.Spec, error) {
	s := core.Spec{
		Node:                 tech.Node(r.NodeNM),
		BlockBytes:           r.BlockBytes,
		Associativity:        r.Associativity,
		Banks:                r.Banks,
		PageBits:             r.PageBits,
		MaxPipelineStages:    r.MaxPipelineStages,
		MaxAreaConstraint:    r.MaxAreaConstraint,
		MaxAcctimeConstraint: r.MaxAcctimeConstraint,
		MaxRepeaterSlack:     r.MaxRepeaterSlack,
		SleepTransistors:     r.SleepTransistors,
		ECC:                  r.ECC,
		Ports:                r.Ports,
		IncludeBankRouting:   r.IncludeBankRouting,
		PhysicalAddressBits:  r.PhysicalAddressBits,
		Weights:              r.Weights,
	}
	if r.Capacity != "" {
		capBytes, err := ParseSize(r.Capacity)
		if err != nil {
			return core.Spec{}, err
		}
		s.CapacityBytes = capBytes
	}
	if r.RAM != "" {
		ram, err := ParseRAM(r.RAM)
		if err != nil {
			return core.Spec{}, err
		}
		s.RAM = ram
	}
	if r.Technology != "" {
		// Resolve eagerly so unknown/ambiguous technology names fail
		// at request-parse time (the server's 400 path), canonicalised
		// so equivalent spellings share fingerprints.
		p, err := tech.Resolve(r.Technology)
		if err != nil {
			return core.Spec{}, err
		}
		s.Technology = p.Name()
	}
	mode, err := ParseMode(r.Mode)
	if err != nil {
		return core.Spec{}, err
	}
	s.Mode = mode
	if s.BlockBytes == 0 {
		s.BlockBytes = 64
	}
	// Like the CLI, model a cache unless the request opts out.
	s.IsCache = r.Cache == nil || *r.Cache
	return s, nil
}

// SweepRequest is the JSON face of Grid.
type SweepRequest struct {
	Base            SpecRequest `json:"base"`
	Technologies    []string    `json:"techs,omitempty"`
	Nodes           []int       `json:"nodes,omitempty"`
	RAMs            []string    `json:"rams,omitempty"`
	Capacities      []string    `json:"capacities,omitempty"`
	BlockBytes      []int       `json:"block_bytes,omitempty"`
	Associativities []int       `json:"associativities,omitempty"`
	Banks           []int       `json:"banks,omitempty"`
	Modes           []string    `json:"modes,omitempty"`
}

// Grid compiles the request, parsing every named axis value.
func (r SweepRequest) Grid() (Grid, error) {
	base, err := r.Base.Spec()
	if err != nil {
		return Grid{}, fmt.Errorf("base: %w", err)
	}
	g := Grid{Base: base}
	for _, s := range r.Technologies {
		p, err := tech.Resolve(s)
		if err != nil {
			return Grid{}, err
		}
		g.Techs = append(g.Techs, p.Name())
	}
	for _, n := range r.Nodes {
		g.Nodes = append(g.Nodes, tech.Node(n))
	}
	for _, s := range r.RAMs {
		ram, err := ParseRAM(s)
		if err != nil {
			return Grid{}, err
		}
		g.RAMs = append(g.RAMs, ram)
	}
	for _, s := range r.Capacities {
		capBytes, err := ParseSize(s)
		if err != nil {
			return Grid{}, err
		}
		g.Capacities = append(g.Capacities, capBytes)
	}
	g.Blocks = r.BlockBytes
	g.Assocs = r.Associativities
	g.Banks = r.Banks
	for _, s := range r.Modes {
		mode, err := ParseMode(s)
		if err != nil {
			return Grid{}, err
		}
		g.Modes = append(g.Modes, mode)
	}
	return g, nil
}
