package core

import (
	"errors"

	"cactid/internal/array"
)

// Projection is the part of a solved design that outlives its solve:
// the spec, the scalar metrics, the data organization and its
// pipeline stages, and the tag organization — every field the
// exploration renderers and Frontier read, so a solution rebuilt from
// it renders byte-identically to the original. The engine's tier-0
// cache holds solutions rebuilt from projections (Project), the
// durable store persists one per solved fingerprint and the fabric
// wire ships one per solved point.
//
// Every field is omitempty: a zero metric (no refresh for SRAM, no
// programming pulse for an ITRS cell) leaves no key, and a missing
// key decodes to the same zero.
type Projection struct {
	Spec *Spec `json:"spec,omitempty"`

	AccessTime      float64 `json:"access_time_s,omitempty"`
	RandomCycle     float64 `json:"random_cycle_s,omitempty"`
	InterleaveCycle float64 `json:"interleave_cycle_s,omitempty"`
	Area            float64 `json:"area_m2,omitempty"`
	BankArea        float64 `json:"bank_area_m2,omitempty"`
	AreaEff         float64 `json:"area_efficiency,omitempty"`
	EReadPerAccess  float64 `json:"read_energy_j,omitempty"`
	EWritePerAccess float64 `json:"write_energy_j,omitempty"`
	LeakagePower    float64 `json:"leakage_w,omitempty"`
	RefreshPower    float64 `json:"refresh_w,omitempty"`
	WriteTime       float64 `json:"write_time_s,omitempty"`
	WriteEndurance  float64 `json:"write_endurance_cycles,omitempty"`

	DataOrg            *array.Org `json:"data_org,omitempty"`
	DataPipelineStages int        `json:"data_pipeline_stages,omitempty"`
	TagOrg             *array.Org `json:"tag_org,omitempty"`
}

// Projection returns s's projection. It points into s instead of
// copying the spec and the organizations, so it is valid while s is
// unchanged: long enough to encode it or to rebuild a solution.
func (s *Solution) Projection() Projection {
	p := Projection{
		Spec:            &s.Spec,
		AccessTime:      s.AccessTime,
		RandomCycle:     s.RandomCycle,
		InterleaveCycle: s.InterleaveCycle,
		Area:            s.Area,
		BankArea:        s.BankArea,
		AreaEff:         s.AreaEff,
		EReadPerAccess:  s.EReadPerAccess,
		EWritePerAccess: s.EWritePerAccess,
		LeakagePower:    s.LeakagePower,
		RefreshPower:    s.RefreshPower,
		WriteTime:       s.WriteTime,
		WriteEndurance:  s.WriteEndurance,
	}
	if s.Data != nil {
		p.DataOrg, p.DataPipelineStages = &s.Data.Org, s.Data.PipelineStages
	}
	if s.Tag != nil {
		p.TagOrg = &s.Tag.Org
	}
	return p
}

// Solution rebuilds the solution p projects, in one allocation: its
// spec and metrics, a Data bank holding only Org and PipelineStages
// and a Tag bank holding only Org. A projection without a spec or a
// data organization is rejected, since every renderer reads both.
func (p *Projection) Solution() (*Solution, error) {
	if p.Spec == nil || p.DataOrg == nil {
		return nil, errors.New("core: projection has no spec or no data organization")
	}
	return p.stub(), nil
}

// Project returns sol's projection rebuilt as a solution that keeps
// none of sol's mats, bank slabs or Technology reachable: about a
// kilobyte instead of the whole evaluated design. nil projects to nil.
func Project(sol *Solution) *Solution {
	if sol == nil {
		return nil
	}
	p := sol.Projection()
	return p.stub()
}

// stub is Solution without its check; p.Spec must be set.
func (p *Projection) stub() *Solution {
	st := &struct {
		sol       Solution
		data, tag array.Bank
	}{sol: Solution{
		Spec:            *p.Spec,
		AccessTime:      p.AccessTime,
		RandomCycle:     p.RandomCycle,
		InterleaveCycle: p.InterleaveCycle,
		Area:            p.Area,
		BankArea:        p.BankArea,
		AreaEff:         p.AreaEff,
		EReadPerAccess:  p.EReadPerAccess,
		EWritePerAccess: p.EWritePerAccess,
		LeakagePower:    p.LeakagePower,
		RefreshPower:    p.RefreshPower,
		WriteTime:       p.WriteTime,
		WriteEndurance:  p.WriteEndurance,
	}}
	if p.DataOrg != nil {
		st.data.Org, st.data.PipelineStages = *p.DataOrg, p.DataPipelineStages
		st.sol.Data = &st.data
	}
	if p.TagOrg != nil {
		st.tag.Org = *p.TagOrg
		st.sol.Tag = &st.tag
	}
	return &st.sol
}
