package d3

import (
	"math"
	"testing"

	"botmeter/internal/dga"
)

func pool() *dga.Pool {
	m := dga.DrainReplenish{NX: 995, C2: 5, Gen: dga.DefaultGenerator}
	return m.PoolFor(42, 0)
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name string
		w    Window
		ok   bool
	}{
		{"zero", Window{}, true},
		{"typical", Window{MissRate: 0.3, Collisions: 2}, true},
		{"negative miss", Window{MissRate: -0.1}, false},
		{"full miss", Window{MissRate: 1}, false},
		{"negative collisions", Window{Collisions: -1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.w.Validate(); (err == nil) != tt.ok {
				t.Errorf("Validate() err = %v, ok = %v", err, tt.ok)
			}
		})
	}
}

func TestDetectFullCoverage(t *testing.T) {
	p := pool()
	rep := Window{}.Detect(0, p)
	if len(rep.Detected) != p.Size() || rep.Missed != 0 {
		t.Errorf("perfect detector: %d detected, %d missed", len(rep.Detected), rep.Missed)
	}
	if rep.Coverage() != 1 {
		t.Errorf("coverage = %v", rep.Coverage())
	}
	for i, pos := range rep.DetectedPositions {
		if p.Domains[pos] != rep.Detected[i] {
			t.Fatal("positions not parallel to domains")
		}
	}
}

func TestDetectMissRate(t *testing.T) {
	p := pool()
	w := Window{MissRate: 0.3, Seed: 1}
	rep := w.Detect(0, p)
	got := rep.Coverage()
	if math.Abs(got-0.7) > 0.05 {
		t.Errorf("coverage = %v, want ≈0.7", got)
	}
	if len(rep.Detected)+rep.Missed != p.Size() {
		t.Error("detected + missed must equal pool size")
	}
}

func TestDetectDeterministic(t *testing.T) {
	p := pool()
	w := Window{MissRate: 0.5, Seed: 9}
	a := w.Detect(3, p)
	b := w.Detect(3, p)
	if len(a.Detected) != len(b.Detected) {
		t.Fatal("nondeterministic detection")
	}
	for i := range a.Detected {
		if a.Detected[i] != b.Detected[i] {
			t.Fatal("nondeterministic detection content")
		}
	}
	c := w.Detect(4, p)
	if len(a.Detected) == len(c.Detected) {
		same := true
		for i := range a.Detected {
			if a.Detected[i] != c.Detected[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different epochs should miss different domains")
		}
	}
}

func TestDetectCollisions(t *testing.T) {
	p := pool()
	w := Window{Collisions: 3, Seed: 2}
	rep := w.Detect(0, p)
	if len(rep.Collisions) != 3 {
		t.Fatalf("collisions = %d, want 3", len(rep.Collisions))
	}
	// Collision domains are distinct from pool domains.
	for _, c := range rep.Collisions {
		if _, in := p.Position(c); in {
			t.Errorf("collision %q is a real pool domain", c)
		}
	}
}

func TestCoverageEmptyReport(t *testing.T) {
	if (Report{}).Coverage() != 0 {
		t.Error("empty report coverage should be 0")
	}
}
