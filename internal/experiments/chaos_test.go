package experiments

import (
	"strings"
	"testing"
)

func smallChaosConfig() SweepConfig {
	return SweepConfig{Trials: 2, Population: 16, Seed: 9, Scale: 0.08}
}

// TestChaosSweepDeterministic: the whole point of seeded fault injection is
// that a chaos run replays bit-for-bit — two sweeps with the same config
// must render byte-identically, including the injected-fault counters.
func TestChaosSweepDeterministic(t *testing.T) {
	pts1, err := ChaosSweep(smallChaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	pts2, err := ChaosSweep(smallChaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := RenderChaos(pts1), RenderChaos(pts2)
	if r1 != r2 {
		t.Errorf("chaos sweep not deterministic:\n%s\nvs\n%s", r1, r2)
	}
	if pts3, err := ChaosSweep(SweepConfig{Trials: 2, Population: 16, Seed: 10, Scale: 0.08}); err != nil {
		t.Fatal(err)
	} else if RenderChaos(pts3) == r1 {
		t.Error("different seed produced an identical sweep")
	}
}

func TestChaosSweepShape(t *testing.T) {
	pts, err := ChaosSweep(smallChaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 2 models; AU has 2 estimators, AR has 2; 4 rates; bare+hardened.
	if want := (2 + 2) * 4 * 2; len(pts) != want {
		t.Fatalf("points = %d, want %d", len(pts), want)
	}
	var sawFault, sawClean bool
	for _, p := range pts {
		if p.Model != "AU" && p.Model != "AR" {
			t.Errorf("unexpected model %q", p.Model)
		}
		if p.X == 0 {
			if p.Faults.Lost+p.Faults.ServFails+p.Faults.Duplicated != 0 {
				t.Errorf("rate 0 injected faults: %s", p.Faults)
			}
			sawClean = true
		} else if p.Faults.Lost > 0 {
			sawFault = true
		}
		if p.ARE.P50 < 0 {
			t.Errorf("negative ARE at %+v", p)
		}
	}
	if !sawClean || !sawFault {
		t.Errorf("sweep coverage: clean=%v faulty=%v", sawClean, sawFault)
	}

	r := RenderChaos(pts)
	for _, want := range []string{"hardened", "bare", "MT", "injected"} {
		if !strings.Contains(r, want) {
			t.Errorf("rendering missing %q:\n%s", want, r)
		}
	}
}

// TestChaosHardeningReducesLoss: with retries on, the border sees strictly
// more of the bots' lookups than bare under the same fault rate — the
// mechanism by which hardening buys estimator accuracy back.
func TestChaosHardeningReducesLoss(t *testing.T) {
	cfg := smallChaosConfig()
	pts, err := ChaosSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Compare total surviving (passed) datagrams at the highest fault rate.
	var bare, hard *ChaosPoint
	for i := range pts {
		p := &pts[i]
		if p.Model == "AU" && p.Estimator == "MT" && p.X == 0.3 {
			if p.Hardened {
				hard = p
			} else {
				bare = p
			}
		}
	}
	if bare == nil || hard == nil {
		t.Fatal("missing AU/MT points at rate 0.3")
	}
	if hard.Faults.Passed <= bare.Faults.Passed {
		t.Errorf("hardened passed=%d <= bare passed=%d; retries should push more lookups through",
			hard.Faults.Passed, bare.Faults.Passed)
	}
}
