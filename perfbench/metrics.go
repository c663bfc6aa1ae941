package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names
// and units; TestMetricNamesMatchBenchmarkJSON keeps the two in step.
type metricDef struct {
	name, unit string
	// layer marks a per-layer metric, emitted only by a traced run.
	layer bool
}

var metricDefs = []metricDef{
	// End to end: host-side, measured with tracing off.
	{"setup_s", "s", false},
	{"pass_s", "s", false},
	{"alloc_kobj", "kobj", false},
	{"sel_err_pct", "%", false},

	// Per layer, from the traced pass and the probes around it.
	{"sim.busy_s", "s", true},
	{"sim.kernels", "count", true},
	{"sim.warp_instrs", "count", true},
	{"sim.cycles", "count", true},
	{"sim.mwips", "Mwi/s", true},
	{"sim.ns_per_cycle", "ns", true},
	{"mem.l2_miss_rate", "ratio", true},
	{"mem.dram_util", "ratio", true},
	{"pkp.stopped_early_frac", "ratio", true},
	{"pkp.sim_frac", "ratio", true},
	{"sampling.tasks", "count", true},
	{"sampling.sims_per_launch", "ratio", true},
	{"sampling.disk_hit_frac", "ratio", true},
	{"sampling.taskkey_us", "us", true},
	{"sampling.decode_us", "us", true},
	{"sampling.encode_us", "us", true},
	{"artifact.get_us", "us", true},
	{"artifact.get_s", "s", true},
	{"artifact.hits", "count", true},
	{"artifact.misses", "count", true},
	{"artifact.corrupt", "count", true},
	{"artifact.put_us", "us", true},
	{"artifact.put_s", "s", true},
	{"artifact.bytes", "B", true},
	{"parallel.queue_wait_s", "s", true},
	{"parallel.util", "ratio", true},
	{"silicon.busy_s", "s", true},
	{"pks.busy_s", "s", true},
	{"pks.k", "count", true},
	{"pks.detailed_kernels", "count", true},
	{"pks.light_kernels", "count", true},
	{"pks.other_s", "s", true},
	{"profiler.detailed_s", "s", true},
	{"profiler.light_s", "s", true},
	{"classify.fit_s", "s", true},
	{"classify.predict_s", "s", true},
	{"core.pka_err_pct", "%", true},
	{"core.full_err_pct", "%", true},
	{"core.pka_speedup_x", "x", true},
	{"core.other_s", "s", true},
	{"trace.overhead_frac", "ratio", true},
	{"host.yardstick_ns", "ns", true},
	{"host.peak_rss_mb", "MB", true},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit selects the metrics one run reports — every end-to-end metric, or
// with trace every per-layer one — and fails if any is missing or not a
// finite number, so a run can never silently drop a metric.
func emit(values map[string]float64, trace bool) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	for _, d := range metricDefs {
		if d.layer != trace {
			continue
		}
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// median returns the middle of xs (the mean of the middle two for an even
// count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// which is how the benchmark's spread is judged; 0, 0 for none.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// geomean returns the geometric mean of xs; 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
