package main

import (
	"strings"
	"testing"
)

func ratioSnap() *Snapshot {
	return &Snapshot{Benchmarks: []Benchmark{
		{Name: "Serve/direct", NsPerOp: 100},
		{Name: "Serve/served", NsPerOp: 150},
		{Name: "Study/p=1", NsPerOp: 400},
		{Name: "Study/p=4", NsPerOp: 100},
	}}
}

func TestCheckRatios(t *testing.T) {
	snap := ratioSnap()
	if err := checkRatios(snap, "Study/p=1:Study/p=4:3", 8); err != nil {
		t.Errorf("4x speedup fails a 3x floor: %v", err)
	}
	err := checkRatios(snap, "Study/p=1:Study/p=4:5", 8)
	if err == nil || !strings.Contains(err.Error(), "only 4.00x faster") {
		t.Errorf("4x speedup passes a 5x floor: %v", err)
	}
	// MINCPU skips the spec — including one that would fail.
	if err := checkRatios(snap, "Study/p=1:Study/p=4:5:4", 2); err != nil {
		t.Errorf("2-CPU machine enforced a MINCPU=4 spec: %v", err)
	}
	if err := checkRatios(snap, "Study/p=1:NoSuchBench:2", 8); err == nil {
		t.Error("absent benchmark name passed silently")
	}
	if err := checkRatios(snap, "Study/p=1:Study/p=4", 8); err == nil {
		t.Error("malformed spec accepted")
	}
	if err := checkRatios(snap, "Study/p=1:Study/p=4:zero", 8); err == nil {
		t.Error("non-numeric bound accepted")
	}
}

func TestCheckMaxRatios(t *testing.T) {
	snap := ratioSnap()
	if err := checkMaxRatios(snap, "Serve/served:Serve/direct:2", 8); err != nil {
		t.Errorf("1.5x overhead fails a 2x ceiling: %v", err)
	}
	err := checkMaxRatios(snap, "Serve/served:Serve/direct:1.2", 8)
	if err == nil || !strings.Contains(err.Error(), "1.50x slower") {
		t.Errorf("1.5x overhead passes a 1.2x ceiling: %v", err)
	}
	if err := checkMaxRatios(snap, "Serve/served:Serve/direct:1.2:16", 2); err != nil {
		t.Errorf("2-CPU machine enforced a MINCPU=16 spec: %v", err)
	}
	if err := checkMaxRatios(snap, "NoSuchBench:Serve/direct:2", 8); err == nil {
		t.Error("absent benchmark name passed silently")
	}
}

func TestCheckMetricRatios(t *testing.T) {
	snap := &Snapshot{Benchmarks: []Benchmark{
		{Name: "SuiteDedup/perapp", NsPerOp: 100, Metrics: map[string]float64{"warp-instrs": 216}},
		{Name: "SuiteDedup/dedup", NsPerOp: 100, Metrics: map[string]float64{"warp-instrs": 72}},
	}}
	if err := checkMetricRatios(snap, "warp-instrs:SuiteDedup/perapp:SuiteDedup/dedup:1.3", 8); err != nil {
		t.Errorf("3x reduction fails a 1.3x floor: %v", err)
	}
	err := checkMetricRatios(snap, "warp-instrs:SuiteDedup/perapp:SuiteDedup/dedup:5", 8)
	if err == nil || !strings.Contains(err.Error(), "only 3.00x") {
		t.Errorf("3x reduction passes a 5x floor: %v", err)
	}
	// MINCPU skips the spec — including one that would fail.
	if err := checkMetricRatios(snap, "warp-instrs:SuiteDedup/perapp:SuiteDedup/dedup:5:4", 2); err != nil {
		t.Errorf("2-CPU machine enforced a MINCPU=4 spec: %v", err)
	}
	if err := checkMetricRatios(snap, "mwi-s:SuiteDedup/perapp:SuiteDedup/dedup:1.3", 8); err == nil {
		t.Error("absent metric passed silently")
	}
	if err := checkMetricRatios(snap, "warp-instrs:NoSuchBench:SuiteDedup/dedup:1.3", 8); err == nil {
		t.Error("absent benchmark name passed silently")
	}
	if err := checkMetricRatios(snap, "warp-instrs:SuiteDedup/perapp:SuiteDedup/dedup", 8); err == nil {
		t.Error("malformed spec accepted")
	}
}

func TestParseBenchLine(t *testing.T) {
	b, ok := parseBenchLine("BenchmarkServe/qps=64-8 \t 1\t246153132 ns/op\t58.03 p50-ms\t84.47 p99-ms")
	if !ok {
		t.Fatal("bench line rejected")
	}
	if b.Name != "Serve/qps=64" || b.NsPerOp != 246153132 {
		t.Errorf("parsed %+v", b)
	}
	if b.Metrics["p50-ms"] != 58.03 || b.Metrics["p99-ms"] != 84.47 {
		t.Errorf("custom metrics lost: %v", b.Metrics)
	}
	if _, ok := parseBenchLine("ok  \tpka\t0.961s"); ok {
		t.Error("non-bench line accepted")
	}
}

func TestCheckRegressionsNormalizesByYardstick(t *testing.T) {
	base := &Snapshot{Benchmarks: []Benchmark{
		{Name: "SimulatorThroughput", NsPerOp: 100e6},
		{Name: yardstick, NsPerOp: 100},
	}}
	run := func(simNs, yardNs float64) *Snapshot {
		return &Snapshot{Benchmarks: []Benchmark{
			{Name: "SimulatorThroughput", NsPerOp: simNs},
			{Name: yardstick, NsPerOp: yardNs},
		}}
	}
	if err := checkRegressions(run(100e6, 100), base, "SimulatorThroughput", 25); err != nil {
		t.Errorf("unchanged run failed: %v", err)
	}
	// 30% slower on the same machine: a regression.
	err := checkRegressions(run(130e6, 100), base, "SimulatorThroughput", 25)
	if err == nil || !strings.Contains(err.Error(), "regressed 30.0%") {
		t.Errorf("30%% slowdown with the same yardstick: err = %v", err)
	}
	// The same 30% on a machine whose yardstick is 60% slower: the code
	// got faster relative to the host.
	if err := checkRegressions(run(130e6, 160), base, "SimulatorThroughput", 25); err != nil {
		t.Errorf("30%% slowdown on a 60%% slower host failed: %v", err)
	}
}

func TestCheckRegressionsNeedsYardstick(t *testing.T) {
	full := &Snapshot{Benchmarks: []Benchmark{
		{Name: "KMeansSweep", NsPerOp: 5e6},
		{Name: yardstick, NsPerOp: 80},
	}}
	bare := &Snapshot{Benchmarks: []Benchmark{{Name: "KMeansSweep", NsPerOp: 5e6}}}
	if err := checkRegressions(bare, full, "KMeansSweep", 25); err == nil {
		t.Error("run without the yardstick passed")
	}
	if err := checkRegressions(full, bare, "KMeansSweep", 25); err == nil {
		t.Error("baseline without the yardstick passed")
	}
	if err := checkRegressions(full, full, yardstick, 25); err == nil {
		t.Error("the yardstick gated itself")
	}
	if err := checkRegressions(full, full, "NoSuchBench", 25); err == nil {
		t.Error("absent benchmark name passed silently")
	}
}
