package circuit

import (
	"math"
	"testing"
	"testing/quick"

	"cactid/internal/tech"
)

// The repeated-wire delay floor underpins the solver's branch-and-bound
// pruning (internal/array): an inadmissible bound would silently change
// solver output. Check delay >= max(fixed+lin*L, rate*L) across random
// lengths and slacks.
func TestRepeatedWireDelayLBAdmissible(t *testing.T) {
	d := dev32()
	w := t32().Wire(tech.WireGlobal)
	f := func(lenU uint16, slackU uint8) bool {
		length := 1e-6 + float64(lenU)*1e-7 // 1um .. ~6.6mm
		slack := float64(slackU%5) * 0.25   // 0 .. 1.0
		r := NewRepeater(d, w, slack)
		fixed, lin, rate := r.DelayLBParts()
		lb := math.Max(fixed+lin*length, rate*length)
		return lb <= NewRepeatedWire(d, w, length, slack).Res.Delay
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRepeatedWireDelayLBParts(t *testing.T) {
	d := dev32()
	w := t32().Wire(tech.WireGlobal)
	r := NewRepeater(d, w, 0)
	fixed, lin, rate := r.DelayLBParts()
	if fixed <= 0 || lin <= 0 || rate <= 0 {
		t.Fatalf("parts must be positive: fixed=%g lin=%g rate=%g", fixed, lin, rate)
	}
	if rate <= lin {
		t.Errorf("rate %g should exceed lin %g (it adds the AM-GM repeater term)", rate, lin)
	}
}
