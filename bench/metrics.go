package main

import (
	"math"
	"sort"
)

// metricDef names one reported number. The two tables below are the single
// source of the metric names: BENCHMARK.json lists exactly these (checked by
// TestBenchmarkJSONMatchesCatalogue) and every run emits exactly one of the
// two sets, end-to-end without tracing and per-layer with it.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the gated metrics. The driver reads every one of them from
// every workload, so each is defined on all six (see README.md for the
// per-workload meaning of "op", and for why no latency is among them).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"rss_mb", "MB"},
}

// perLayer are the ungated metrics of the traced run. A metric that has no
// meaning on a workload (resolver.* on an in-process workload, say) reads 0
// there. The first block carries the issue's end-to-end names that only some
// workloads can measure, so they cannot be gated under the one-set-for-all
// contract; the rest are single layers.
var perLayer = []metricDef{
	// Workload-specific end-to-end numbers (ungated).
	{"capacity_qps", "1/s"},
	{"cpu_us_per_query", "us"},
	{"p50_us", "us"},
	{"p90_us", "us"},
	{"records_per_s", "1/s"},
	{"snapshot_ms", "ms"},
	{"checkpoint_ms", "ms"},
	{"restore_ms", "ms"},
	{"merge_ms", "ms"},
	{"batch_records_per_s", "1/s"},
	{"trials_per_s", "1/s"},
	{"fig7_s", "s"},
	{"trace.overhead_ratio", "ratio"},

	// Wire: the two daemons, from /proc and /metrics.
	{"resolver.cpu_us_per_query", "us"},
	{"resolver.sys_share", "ratio"},
	{"resolver.rss_mb", "MB"},
	{"resolver.cache_hit_ratio", "ratio"},
	{"resolver.forwarded_per_query", "ratio"},
	{"vantage.cpu_us_per_query", "us"},
	{"vantage.sys_share", "ratio"},
	{"vantage.rss_mb", "MB"},
	{"vantage.observed_per_query", "ratio"},
	{"trace.bytes_per_record", "B"},
	{"stream.matched_ratio", "ratio"},
	{"stream.dropped_late", "count"},
	{"stream.checkpoints_written", "count"},

	// Wire: the load generator itself.
	{"loadgen.capacity_min_qps", "1/s"},
	{"loadgen.capacity_median_qps", "1/s"},
	{"loadgen.capacity_max_qps", "1/s"},
	{"loadgen.cpu_us_per_query", "us"},
	{"loadgen.late_p99_us", "us"},
	{"loadgen.p99_us", "us"},
	{"loadgen.p999_us", "us"},
	{"loadgen.loss_ratio", "ratio"},
	{"loadgen.timeouts", "count"},
	{"loadgen.retransmits", "count"},

	// Wire: the workload's packets replayed through each public call.
	{"netx.echo_ns", "ns"},
	{"dnswire.decode_ns", "ns"},
	{"dnswire.decode_alloc_ns", "ns"},
	{"dnswire.encode_ns", "ns"},
	{"symtab.lookup_hit_ns", "ns"},
	{"symtab.intern_miss_ns", "ns"},
	{"dnssim.cache_lookup_id_ns", "ns"},
	{"dnssim.cache_store_id_ns", "ns"},
	{"trace.append_observed_ns", "ns"},
	{"stream.observe_ns", "ns"},
	{"matcher.match_id_ns", "ns"},
	{"matcher.match_string_ns", "ns"},
	{"wire.unattributed_us", "us"},

	// Stream side.
	{"stream.ingest_ns_per_record.mp", "ns"},
	{"stream.ingest_ns_per_record.mb", "ns"},
	{"stream.ingest_ns_per_record.mt", "ns"},
	{"stream.drain_ms", "ms"},
	{"stream.peak_retained", "count"},
	{"stream.reorder_evictions", "count"},
	{"stream.epochs_closed", "count"},
	{"stream.shard_skew", "ratio"},
	{"stream.export_ms", "ms"},
	{"stream.encode_ms", "ms"},
	{"stream.checkpoint_write_ms", "ms"},
	{"stream.checkpoint_kb", "KB"},
	{"stream.decode_ms", "ms"},
	{"stream.merge_states_ms", "ms"},
	{"stream.load_ms", "ms"},
	{"stream.restore_ms", "ms"},
	{"stream.quiesce_ms", "ms"},

	// Batch side.
	{"dga.pool_ms", "ms"},
	{"botnet.simulate_ms", "ms"},
	{"dnssim.cache_hit_ratio", "ratio"},
	{"trace.observed_records", "count"},
	{"core.analyze_ms", "ms"},
	{"core.analyze_ns_per_record", "ns"},
	{"matcher.match_ns_per_record", "ns"},
	{"estimators.mp_us_per_epoch", "us"},
	{"estimators.mb_us_per_epoch", "us"},
	{"estimators.mt_us_per_epoch", "us"},
	{"enterprise.generate_ms", "ms"},
	{"experiments.fig7_analyze_ms", "ms"},
	{"batch.allocs_per_trial", "count"},
	{"batch.alloc_mb_per_trial", "MB"},
	{"parallel.speedup_workers", "ratio"},
}

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between closest ranks; NaN when sorted is empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if pos == float64(lo) {
		return sorted[lo]
	}
	return sorted[lo] + (sorted[lo+1]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// calmCost and calmRate summarise repeated measurements of one quantity
// inside a run. The reference box is shared: whatever else runs on the host
// slows it in bursts of a tenth of a second or so, which make the same 0.4 s
// of work take anything from 0.38 to 0.60 s, and a run catches more or fewer
// of them. A burst only ever makes a sample worse, so a run takes many
// short samples and reports the decile on the undisturbed side: the lowest
// of a cost, the highest of a rate.
func calmCost(v []float64) float64 { return quantile(sortedCopy(v), 0.10) }

func calmRate(v []float64) float64 { return quantile(sortedCopy(v), 0.90) }

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

func ms(seconds float64) float64 { return seconds * 1e3 }
