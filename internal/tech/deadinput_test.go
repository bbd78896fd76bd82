package tech_test

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cactid/internal/core"
	"cactid/internal/crossbar"
	"cactid/internal/spectest"
	"cactid/internal/tech"
	"cactid/internal/validate"
)

// input is one technology input: a float64 or bool field of a base
// node's Technology or of an overlay provider's cell table at that
// node.
type input struct {
	path  string // the slot, e.g. Devices[ITRS-HP].IonN
	field string // the field across slots, e.g. DeviceParams.IonN
	group string // the device family, wire class or cell it belongs to
	// set raises the input 10% (a bool flips) when perturb is true,
	// and otherwise restores its original bits.
	set func(perturb bool)
}

// perturber returns the set function of field v, addressable, whose
// store commits the change (nil when v sits in the table itself).
func perturber(v reflect.Value, store func()) func(bool) {
	orig := reflect.ValueOf(v.Interface())
	return func(perturb bool) {
		switch {
		case !perturb:
			v.Set(orig)
		case v.Kind() == reflect.Bool:
			v.SetBool(!orig.Bool())
		default:
			v.SetFloat(orig.Float() * 1.1)
		}
		if store != nil {
			store()
		}
	}
}

// live reports whether perturbing a value can mean anything: a
// nonzero finite float or a bool.
func live(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		return true
	case reflect.Float64:
		f := v.Float()
		return f != 0 && !math.IsInf(f, 0) && !math.IsNaN(f)
	}
	return false
}

// fieldsOf appends an input for every perturbable field of the struct
// v (addressable), named under path and grouped under group.
func fieldsOf(dst []input, v reflect.Value, path, group string, store func()) []input {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !live(f) {
			continue
		}
		name := v.Type().Field(i).Name
		dst = append(dst, input{path: path + name, field: v.Type().Name() + "." + name,
			group: group, set: perturber(f, store)})
	}
	return dst
}

// inputsAt lists every input of base node n: the Technology's own
// scalars, each device family, each wire class in both conductors,
// each ITRS cell and each overlay cell.
func inputsAt(n tech.Node) []input {
	t := reflect.ValueOf(tech.BaseTable(n)).Elem()
	var ins []input
	for i := 0; i < t.NumField(); i++ {
		f, name := t.Field(i), t.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Float64:
			if live(f) {
				ins = append(ins, input{path: name, field: "Technology." + name, group: "technology",
					set: perturber(f, nil)})
			}
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				var kind, elem string
				switch e := f.Index(j).Interface().(type) {
				case tech.DeviceParams:
					kind, elem = "device", e.Type.String()
				case tech.WireParams:
					kind, elem = "wire", e.Class.String()
				case tech.CellParams:
					kind, elem = "cell", e.RAM.String()
				}
				ins = fieldsOf(ins, f.Index(j), fmt.Sprintf("%s[%s].", name, elem), kind+" "+elem, nil)
			}
		}
	}
	for _, ram := range []tech.RAMType{tech.STTRAM, tech.PCM, tech.GAINCELL} {
		cells := tech.OverlayCells()[ram]
		c := cells[n]
		v := reflect.ValueOf(&c).Elem()
		ins = fieldsOf(ins, v, fmt.Sprintf("overlay[%v].", ram), "cell "+ram.String(),
			func() { cells[n] = c })
	}
	return ins
}

// probe computes one output as text that spells every float exactly
// and holds no pointer.
type probe func() string

// solveProbe solves s at node n and spells its projection.
func solveProbe(s core.Spec, n tech.Node) probe {
	s.Node = n
	return func() string {
		sol, err := core.OptimizeContext(context.Background(), s, nil)
		if err != nil {
			return "error: " + err.Error()
		}
		p := sol.Projection()
		data, tag := p.DataOrg, p.TagOrg
		p.Spec, p.DataOrg, p.TagOrg = nil, nil, nil
		return fmt.Sprintf("%+v %+v %+v", p, data, tag)
	}
}

// crossbarProbe evaluates the LLC study's 8x8 L2-L3 crossbar (HP
// devices, a 64 B line plus 48 bits of sideband, spanning 4 x 1.5 mm)
// on node n's tables.
func crossbarProbe(n tech.Node) probe {
	return func() string {
		x, err := crossbar.New(crossbar.Config{Tech: tech.New(n), Device: tech.HP, Inputs: 8, Outputs: 8,
			Width: 64*8 + 48, SpanX: 4e-3, SpanY: 1.5e-3})
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprint(x.Delay, x.EnergyPerTx, x.Leakage, x.Area)
	}
}

func table1Probe(n tech.Node) probe {
	return func() string { return fmt.Sprintf("%+v", tech.Table1(n)) }
}

// micronProbe reproduces Table 2 on the 78 nm Micron DDR3 device.
func micronProbe() string {
	rows, c, err := validate.Micron()
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%+v %+v %+v %v", rows, c.Timing, c.Bank.Org,
		[]float64{c.Area, c.AreaEff, c.EActivate, c.ERead, c.EWrite, c.RefreshPower, c.StandbyPower})
}

// deadInputSpecs draws, for every provider, two generated specs that
// solve at 32 nm.
func deadInputSpecs() []core.Spec {
	r := rand.New(rand.NewPCG(31, 10))
	var specs []core.Spec
	for _, p := range tech.Providers() {
		for found := 0; found < 2; {
			s := spectest.Spec(r)
			s.Node = tech.Node32
			c, err := s.Canonical()
			if err != nil || c.Technology != p && !(p == tech.DefaultTech && c.Technology == "") {
				continue
			}
			if _, err := core.Optimize(s); err != nil {
				continue
			}
			specs = append(specs, s)
			found++
		}
	}
	return specs
}

// TestEveryInputMovesAnOutput raises every input of every base node's
// technology tables and overlay cell tables 10%, one at a time (a bool
// flips), and looks for an output that moves: the solves of generated
// specs of every provider at the node and at the interpolated nodes it
// brackets, Table 1 at those nodes, Table 2 (the 78 nm Micron device,
// for the nodes bracketing 78) and the LLC study's crossbar at the
// node. Each input is restored bit for bit, and the interpolation
// memo cleared, before the next. A field that moves nothing at any
// node, or a device family, wire class or cell none of whose inputs
// moves anything, is dead model input and fails the test; the
// individual inputs that move nothing at +10% are logged.
func TestEveryInputMovesAnOutput(t *testing.T) {
	specs := deadInputSpecs()
	brackets := map[tech.Node][]tech.Node{90: {78}, 65: {78, 55}, 45: {55, 38}, 32: {38}}
	probes := func(n tech.Node) []probe {
		ps := []probe{crossbarProbe(n), table1Probe(n)}
		for _, m := range brackets[n] {
			ps = append(ps, table1Probe(m))
			if m == 78 {
				ps = append(ps, micronProbe)
			}
		}
		for _, m := range append([]tech.Node{n}, brackets[n]...) {
			for _, s := range specs {
				ps = append(ps, solveProbe(s, m))
			}
		}
		return ps
	}

	moved := map[string]bool{} // field or group -> some input of it moved an output
	var dead []string
	inputs := 0
	for _, n := range []tech.Node{tech.Node90, tech.Node65, tech.Node45, tech.Node32} {
		ps := probes(n)
		want := make([]string, len(ps))
		for i, p := range ps {
			want[i] = p()
		}
		for _, in := range inputsAt(n) {
			inputs++
			in.set(true)
			tech.ClearInterpolated()
			hit := false
			for i, p := range ps {
				if p() != want[i] {
					hit = true
					break
				}
			}
			in.set(false)
			tech.ClearInterpolated()
			moved[in.field] = moved[in.field] || hit
			moved[in.group] = moved[in.group] || hit
			if !hit {
				dead = append(dead, fmt.Sprintf("%v %s", n, in.path))
			}
		}
	}
	t.Logf("%d of %d inputs move no output at +10%%: %s", len(dead), inputs, strings.Join(dead, ", "))
	var never []string
	for k, m := range moved {
		if !m {
			never = append(never, k)
		}
	}
	sort.Strings(never)
	for _, k := range never {
		t.Errorf("%s moves no output at any node", k)
	}
}
