package estimators

import (
	"time"

	"botmeter/internal/obs"
	"botmeter/internal/trace"
)

// Instrumented wraps an estimator so every EstimateEpoch call is recorded
// as a stage named "estimate:<Name>" on the given StageSet — the timers
// behind `botmeter -verbose` and `benchgen -timings`. A nil stage set
// returns e unchanged, so uninstrumented pipelines pay nothing.
//
// Only wall time is recorded per call: estimator calls run concurrently
// across servers (core.Analyze's worker pool) and per-call
// runtime.ReadMemStats deltas would both misattribute allocations and
// serialise the workers.
func Instrumented(e Estimator, stages *obs.StageSet) Estimator {
	if stages == nil || e == nil {
		return e
	}
	w := &instrumented{inner: e, stages: stages}
	if sc, ok := e.(StreamCapable); ok {
		// Preserve the streaming capability: the engine type-asserts the
		// estimator it is handed, and a wrapper hiding OpenEpoch would
		// silently turn an incremental estimator into a micro-batch one.
		return &instrumentedStream{instrumented: *w, sc: sc}
	}
	return w
}

type instrumented struct {
	inner  Estimator
	stages *obs.StageSet
}

// instrumentedStream additionally forwards OpenEpoch, so wrapping a
// StreamCapable estimator keeps it StreamCapable. The per-record Observe
// path is deliberately not timed — a timer per record would dwarf the work
// being measured.
type instrumentedStream struct {
	instrumented
	sc StreamCapable
}

// OpenEpoch implements StreamCapable.
func (i *instrumentedStream) OpenEpoch(epoch int, cfg Config) EpochStream {
	return i.sc.OpenEpoch(epoch, cfg)
}

// Name implements Estimator, delegating to the wrapped estimator so model
// selection and reporting are unchanged.
func (i *instrumented) Name() string { return i.inner.Name() }

// EstimateEpoch implements Estimator.
func (i *instrumented) EstimateEpoch(obsData trace.Observed, epoch int, cfg Config) (float64, error) {
	t0 := time.Now()
	est, err := i.inner.EstimateEpoch(obsData, epoch, cfg)
	i.stages.Observe("estimate:"+i.inner.Name(), time.Since(t0), 0)
	return est, err
}
