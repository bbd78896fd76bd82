package tech

import (
	"errors"
	"fmt"
	"strings"
)

// Provider supplies one memory technology family to the solver: the
// device/wire/cell tables at a node plus the identity of the data
// cell the family stores bits in. The built-in ITRS providers expose
// the original SRAM/LP-DRAM/COMM-DRAM models; emerging-technology
// providers (stt-ram, pcm, gain-cell) overlay their own cell tables
// on the ITRS logic process, so peripheral circuitry, wires and tag
// arrays keep the paper's models while the storage cell changes.
//
// The solver resolves a provider from core.Spec's technology field
// (the `tech=` sweep axis). Providers are registered at package init
// in a fixed order; lookup and error messages are deterministic, as
// everything here is reachable from the solver's byte-identity cone.
type Provider interface {
	// Name is the canonical registry name — the value the technology
	// axis canonicalises to.
	Name() string

	// Aliases are additional accepted spellings.
	Aliases() []string

	// DataRAM maps the requested (geometry-axis) RAM type to the cell
	// type this provider's data arrays use. The ITRS family echoes the
	// request; single-technology providers pin their own cell type,
	// overriding the ram axis so cross-technology sweeps can hold one
	// grid while the technology varies.
	DataRAM(requested RAMType) (RAMType, error)

	// Supports reports whether Technology populates the cell table
	// slot for r (tag arrays may use any supported type).
	Supports(r RAMType) bool

	// Technology returns the full table bundle at node n.
	Technology(n Node) (*Technology, error)
}

// Sentinel errors for technology-axis resolution; HTTP handlers map
// both to 400s.
var (
	ErrUnknownTech   = errors.New("tech: unknown technology")
	ErrAmbiguousTech = errors.New("tech: ambiguous technology")
)

// DefaultTech is the canonical name of the default provider: the
// built-in ITRS family, driven by the spec's RAM type exactly as
// before providers existed.
const DefaultTech = "itrs"

// registry holds the providers in registration order. It is built
// once at init and never mutated afterwards, so lookups are
// lock-free and deterministic (no map iteration anywhere near the
// solver's byte-identity cone).
var registry []Provider

func register(p Provider) {
	for _, q := range registry {
		names := append([]string{q.Name()}, q.Aliases()...)
		for _, n := range names {
			if n == p.Name() {
				panic(fmt.Sprintf("tech: duplicate provider name %q", n))
			}
			for _, a := range p.Aliases() {
				if n == a {
					panic(fmt.Sprintf("tech: duplicate provider alias %q", a))
				}
			}
		}
	}
	registry = append(registry, p)
}

// Providers returns the canonical provider names in registration
// order — the valid values of the technology axis.
func Providers() []string {
	names := make([]string, len(registry))
	for i, p := range registry {
		names[i] = p.Name()
	}
	return names
}

// Resolve maps a technology-axis value to its provider. The empty
// string resolves to the default ITRS provider; otherwise the name is
// matched case-insensitively against canonical names and aliases,
// then — uniquely — as a prefix, so `tech=stt` works while `tech=it`
// is rejected as ambiguous. Unknown and ambiguous names return errors
// wrapping ErrUnknownTech / ErrAmbiguousTech with the candidate list.
func Resolve(name string) (Provider, error) {
	s := strings.ToLower(strings.TrimSpace(name))
	if s == "" {
		s = DefaultTech
	}
	for _, p := range registry {
		if p.Name() == s {
			return p, nil
		}
		for _, a := range p.Aliases() {
			if a == s {
				return p, nil
			}
		}
	}
	var matches []Provider
	for _, p := range registry {
		hit := strings.HasPrefix(p.Name(), s)
		for _, a := range p.Aliases() {
			hit = hit || strings.HasPrefix(a, s)
		}
		if hit {
			matches = append(matches, p)
		}
	}
	switch len(matches) {
	case 1:
		return matches[0], nil
	case 0:
		return nil, fmt.Errorf("%w %q (known: %s)",
			ErrUnknownTech, name, strings.Join(Providers(), ", "))
	default:
		names := make([]string, len(matches))
		for i, p := range matches {
			names[i] = p.Name()
		}
		return nil, fmt.Errorf("%w %q (matches %s)",
			ErrAmbiguousTech, name, strings.Join(names, ", "))
	}
}

// TechnologyOf resolves a provider name and builds its Technology at
// node n — the single entry point the solver uses.
func TechnologyOf(name string, n Node) (*Technology, error) {
	p, err := Resolve(name)
	if err != nil {
		return nil, err
	}
	return p.Technology(n)
}

// nodeRangeErr is the error form of New's panic, for providers that
// must report bad nodes instead of panicking.
func nodeRangeErr(n Node) error {
	return fmt.Errorf("tech: node %d outside supported range [32,90] nm", int(n))
}

// itrsProvider is the built-in family. pin < 0 echoes the requested
// RAM type (the default provider); otherwise the data array is pinned
// to one ITRS cell so the family is sweepable alongside the emerging
// technologies on a single axis.
type itrsProvider struct {
	name    string
	aliases []string
	pin     RAMType
	pinned  bool
}

func (p *itrsProvider) Name() string      { return p.name }
func (p *itrsProvider) Aliases() []string { return p.aliases }

func (p *itrsProvider) DataRAM(req RAMType) (RAMType, error) {
	if p.pinned {
		return p.pin, nil
	}
	if !p.Supports(req) {
		return 0, fmt.Errorf("tech: technology %q has no %v cell model", p.name, req)
	}
	return req, nil
}

func (p *itrsProvider) Supports(r RAMType) bool {
	return r == SRAM || r == LPDRAM || r == COMMDRAM
}

func (p *itrsProvider) Technology(n Node) (*Technology, error) {
	if n < Node32 || n > Node90 {
		return nil, nodeRangeErr(n)
	}
	return New(n), nil
}

// overlayProvider models an emerging technology as a cell table
// overlaid on the ITRS logic process at the same node: devices,
// wires, sense amps and the ITRS cells (for tag arrays) are shared,
// while the pinned data-cell slot comes from the provider's own
// per-node table, log-interpolated between base nodes exactly like
// the ITRS tables themselves.
type overlayProvider struct {
	name    string
	aliases []string
	ram     RAMType
	cells   map[Node]CellParams
}

func (p *overlayProvider) Name() string                     { return p.name }
func (p *overlayProvider) Aliases() []string                { return p.aliases }
func (p *overlayProvider) DataRAM(RAMType) (RAMType, error) { return p.ram, nil }

func (p *overlayProvider) Supports(r RAMType) bool {
	return r == p.ram || r == SRAM || r == LPDRAM || r == COMMDRAM
}

func (p *overlayProvider) Technology(n Node) (*Technology, error) {
	if n < Node32 || n > Node90 {
		return nil, nodeRangeErr(n)
	}
	t := New(n)
	if c, ok := p.cells[n]; ok {
		t.Cells[p.ram] = c
	} else {
		lo, hi, w := bracket(n)
		t.Cells[p.ram] = mixCell(p.cells[lo], p.cells[hi], w)
	}
	return t, nil
}

func init() {
	pinned := func(name string, ram RAMType, aliases ...string) *itrsProvider {
		return &itrsProvider{name: name, aliases: aliases, pin: ram, pinned: true}
	}
	register(&itrsProvider{name: DefaultTech, aliases: []string{"default"}})
	register(pinned("itrs-sram", SRAM))
	register(pinned("itrs-lpdram", LPDRAM, "lp-dram"))
	register(pinned("itrs-commdram", COMMDRAM, "comm-dram"))
	register(&overlayProvider{
		name: "stt-ram", aliases: []string{"sttram", "stt", "mram"},
		ram: STTRAM, cells: sttramCells,
	})
	register(&overlayProvider{
		name: "pcm", aliases: []string{"phase-change"},
		ram: PCM, cells: pcmCells,
	})
	register(&overlayProvider{
		name: "gain-cell", aliases: []string{"gaincell", "gc-edram"},
		ram: GAINCELL, cells: gainCellCells,
	})
}
