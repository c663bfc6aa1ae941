package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"pka/internal/core"
	"pka/internal/pks"
	"pka/internal/profiler"
	"pka/internal/silicon"
)

func TestMedianAndQuartiles(t *testing.T) {
	// Quartiles as Python's statistics.quantiles(xs, n=4) prints them.
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 9, 2, 8, 3, 7}, 2, 5, 8},
		{[]float64{2.5, 2.5}, 2.5, 2.5, 2.5},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if med := median(c.xs); q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("%v: quartiles %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	if q1, q3 := quartiles(nil); median(nil) != 0 || q1 != 0 || q3 != 0 {
		t.Error("empty input must give zeros")
	}
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", g)
	}
}

func sampleEvaluation() *core.Evaluation {
	sel := &pks.Selection{
		Workload: "Suite/app", Device: "Tesla V100", K: 2, TwoLevel: true,
		DetailedKernels: 10, TotalKernels: 30,
		SiliconTotalCycles: 123456, ProjectedCycles: 120000,
		SelectionErrorPct: 2.8, SiliconSpeedup: 41.5, ProfilingSeconds: 3.25, ClassifierAccuracy: 0.9,
		Groups: []pks.Group{
			{RepIndex: 0, DetailedCount: 6, MappedCount: 9, Representative: profiler.DetailedRecord{Name: "a"}},
			{RepIndex: 3, DetailedCount: 4, MappedCount: 11, Representative: profiler.DetailedRecord{Name: "b"}},
		},
	}
	return &core.Evaluation{
		Selection:    sel,
		Silicon:      silicon.AppResult{Cycles: 130000},
		FullSimHours: 1.5, FullErrorPct: 7.25,
		PKS: core.SampledSim{SimHours: 0.1, SpeedupVsFull: 15, ErrorPct: 3.5, DRAMUtil: 0.4},
		PKA: core.SampledSim{SimHours: 0.05, SpeedupVsFull: 30, ErrorPct: 4.5, DRAMUtil: 0.41},
	}
}

func TestDigestsArePinned(t *testing.T) {
	ev := sampleEvaluation()
	const wantSel, wantEval = "079573efc42a7a5e", "a6540dfee03f03a0"
	if got := selectionDigest(ev.Selection); got != wantSel {
		t.Errorf("selectionDigest = %s, want %s", got, wantSel)
	}
	if got := evalDigest(ev); got != wantEval {
		t.Errorf("evalDigest = %s, want %s", got, wantEval)
	}
	// Every printed value counts at full precision.
	ev.PKA.ErrorPct = math.Nextafter(ev.PKA.ErrorPct, 5)
	if evalDigest(ev) == wantEval {
		t.Error("a one-ulp change in the PKA error left the digest unchanged")
	}
	ev.Selection.Groups[1].MappedCount++
	if selectionDigest(ev.Selection) == wantSel {
		t.Error("a group population change left the selection digest unchanged")
	}
}

func TestCheckCountsDigestMismatchAsFailed(t *testing.T) {
	def := workloadDef{name: "w", studies: []string{"Rodinia/gauss_208"}, golden: "eval"}
	var out outcome
	var log bytes.Buffer
	if !out.check(def, 0, studyResult{digest: golden["eval:Rodinia/gauss_208"]}, &log) {
		t.Fatal("the golden digest must pass")
	}
	if out.check(def, 0, studyResult{digest: "0000000000000000"}, &log) {
		t.Fatal("a wrong digest must fail")
	}
	if out.Attempted != 2 || out.Failed != 1 {
		t.Errorf("attempted %d failed %d, want 2 and 1", out.Attempted, out.Failed)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range doc.EndToEnd {
		want = append(want, "e2e "+m.Name+" "+m.Unit)
	}
	for _, m := range doc.PerLayer {
		want = append(want, "layer "+m.Name+" "+m.Unit)
	}
	var got []string
	for _, d := range metricDefs {
		k := "e2e"
		if d.layer {
			k = "layer"
		}
		got = append(got, k+" "+d.name+" "+d.unit)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("metric definitions differ from BENCHMARK.json:\ncode:\n%s\nBENCHMARK.json:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for _, w := range doc.Workloads {
		for _, short := range []bool{false, true} {
			if _, err := findWorkload(w.Name, short); err != nil {
				t.Errorf("BENCHMARK.json workload %s: %v", w.Name, err)
			}
		}
	}
	if len(doc.Workloads) != len(workloadDefs) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(doc.Workloads), len(workloadDefs))
	}
}

// TestShortRuns runs one small study per workload end to end, untraced and
// traced, and checks the printed result: correct, nothing failed, and
// exactly the metric names the mode promises.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs studies")
	}
	for _, def := range shortDefs {
		for _, trace := range []string{"0", "1"} {
			t.Run(def.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := realMain([]string{"--short", "--workload", def.name, "--seed", "7", "--seconds", "0",
					"--trace", trace, "--workdir", t.TempDir()}, &stdout, &stderr)
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				var res result
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("result %+v", res)
				}
				for _, d := range metricDefs {
					_, ok := res.Metrics[d.name]
					if ok != (d.layer == (trace == "1")) {
						t.Errorf("metric %s present=%v with trace %s", d.name, ok, trace)
					}
				}
			})
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"--workload", "nope", "--workdir", t.TempDir()}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload must exit non-zero")
	}
	if stdout.Len() != 0 && strings.Contains(stdout.String(), `"correct"`) {
		t.Error("an unknown workload must print no result")
	}
}
