package botnet

import (
	"reflect"
	"testing"

	"botmeter/internal/dga"
	"botmeter/internal/sim"
	"botmeter/internal/trace"
)

// barrelCacheRun is one simulation on a fresh network; it returns everything
// observable: the ground truth and both traces.
func barrelCacheRun(t *testing.T, cfg Config) (*Result, trace.Raw, trace.Observed) {
	t.Helper()
	net := testNetwork()
	r, err := NewRunner(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(sim.Window{Start: 0, End: 2 * sim.Day})
	if err != nil {
		t.Fatal(err)
	}
	return res, net.Raw(), net.Border.Observed()
}

// TestBarrelCacheIsExact: a run through a shared BarrelCache — once filling
// it, once again when every barrel is a hit — is the run without one, down
// to every record of both traces. The two specs read the bot's generator
// after its barrel (jittered query gaps; reactivation back-off), so a hit
// that handed back the positions without the post-draw generator state
// would move their timestamps.
func TestBarrelCacheIsExact(t *testing.T) {
	reactivating := dga.Spec{
		Name:          "SamplingRetry",
		Pool:          dga.DrainReplenish{NX: 400, C2: 1, Gen: dga.DefaultGenerator},
		Barrel:        dga.Sampling{},
		ThetaQ:        30,
		QueryInterval: 500 * sim.Millisecond,
	}
	jittered := dga.Spec{
		Name:      "SamplingJitter",
		Pool:      dga.DrainReplenish{NX: 300, C2: 2, Gen: dga.DefaultGenerator},
		Barrel:    dga.Sampling{},
		ThetaQ:    40,
		MinJitter: 100 * sim.Millisecond,
		MaxJitter: 3 * sim.Second,
	}
	for _, tc := range []struct {
		spec       dga.Spec
		reactivate sim.Time
	}{
		{reactivating, 2 * sim.Hour},
		{jittered, 0},
	} {
		cfg := Config{
			Spec:            tc.spec,
			Seed:            61,
			BotsPerServer:   map[string]int{"local-00": 12, "local-01": 7},
			ReactivateEvery: tc.reactivate,
		}
		wantRes, wantRaw, wantObs := barrelCacheRun(t, cfg)

		cfg.Barrels = NewBarrelCache()
		for _, pass := range []string{"filling", "all hits"} {
			before := len(cfg.Barrels.byBot)
			res, raw, obs := barrelCacheRun(t, cfg)
			if pass == "all hits" && len(cfg.Barrels.byBot) != before {
				t.Errorf("%s: the second run drew %d new barrels", tc.spec.Name, len(cfg.Barrels.byBot)-before)
			}
			if !reflect.DeepEqual(res, wantRes) {
				t.Errorf("%s, %s: result %+v, private draws %+v", tc.spec.Name, pass, res, wantRes)
			}
			if !reflect.DeepEqual(raw, wantRaw) {
				t.Errorf("%s, %s: raw trace differs from private draws (%d vs %d records)", tc.spec.Name, pass, len(raw), len(wantRaw))
			}
			if !reflect.DeepEqual(obs, wantObs) {
				t.Errorf("%s, %s: border trace differs from private draws (%d vs %d records)", tc.spec.Name, pass, len(obs), len(wantObs))
			}
		}
		if len(cfg.Barrels.byBot) == 0 {
			t.Errorf("%s: the cache holds no barrel", tc.spec.Name)
		}
	}
}
