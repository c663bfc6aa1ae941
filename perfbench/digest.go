package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"strconv"

	"pka/internal/core"
	"pka/internal/pks"
)

// golden pins the digest of every study the benchmark runs, keyed by
// "<workload golden prefix>:<study>". cold-study and warm-replay share the
// "eval" entries, so their outcomes must agree study by study. A study
// result is a pure function of the code, so a digest changes only when a
// change alters what cmd/pka would print; such a change updates this table
// and says why.
var golden = map[string]string{
	"eval:Parboil/stencil":                   "38555bf077067ba6",
	"eval:Rodinia/scluster":                  "3ac933ef4f2c992d",
	"eval:Rodinia/gauss_s256":                "b58c8707b13ce5b9",
	"eval:Rodinia/lud_i":                     "e7374fcc7461fe0a",
	"eval:MLPerf/3dunet_inf":                 "7a776e0c5aa310bf",
	"eval:Rodinia/gauss_208":                 "ab69b60c52f9d338",
	"select:MLPerf/bert_offline_inf":         "696194137b6d5569",
	"select:MLPerf/gnmt_training":            "3d8aa16005ffbdcc",
	"select-capped:MLPerf/resnet50_256b_inf": "767e9c4a43835637",
}

func writeFloat(w io.Writer, name string, v float64) {
	fmt.Fprintf(w, "%s=%s\n", name, strconv.FormatFloat(v, 'g', -1, 64))
}

func writeSelection(w io.Writer, sel *pks.Selection) {
	fmt.Fprintf(w, "workload=%s device=%s k=%d two_level=%v detailed=%d total=%d\n",
		sel.Workload, sel.Device, sel.K, sel.TwoLevel, sel.DetailedKernels, sel.TotalKernels)
	fmt.Fprintf(w, "silicon_cycles=%d projected_cycles=%d\n", sel.SiliconTotalCycles, sel.ProjectedCycles)
	writeFloat(w, "classifier_accuracy", sel.ClassifierAccuracy)
	writeFloat(w, "profiling_s", sel.ProfilingSeconds)
	writeFloat(w, "selection_err", sel.SelectionErrorPct)
	writeFloat(w, "silicon_speedup", sel.SiliconSpeedup)
	for i, g := range sel.Groups {
		fmt.Fprintf(w, "group %d rep=%d name=%s count=%d\n", i, g.RepIndex, g.Representative.Name, g.Count())
	}
}

// selectionDigest is an FNV-64a hash over every Selection field cmd/pka
// prints, floats at full precision.
func selectionDigest(sel *pks.Selection) string {
	h := fnv.New64a()
	writeSelection(h, sel)
	return fmt.Sprintf("%016x", h.Sum64())
}

// evalDigest extends selectionDigest with every Evaluation field cmd/pka
// prints after the selection: full-simulation hours and error, and the
// PKS and PKA hours, speedups and errors, plus the silicon ground truth.
func evalDigest(ev *core.Evaluation) string {
	h := fnv.New64a()
	writeSelection(h, ev.Selection)
	fmt.Fprintf(h, "silicon_cycles=%d full=%v\n", ev.Silicon.Cycles, ev.Full != nil)
	writeFloat(h, "full_hours", ev.FullSimHours)
	writeFloat(h, "full_err", ev.FullErrorPct)
	for _, s := range []struct {
		name string
		sim  core.SampledSim
	}{{"pks", ev.PKS}, {"pka", ev.PKA}} {
		writeFloat(h, s.name+"_hours", s.sim.SimHours)
		writeFloat(h, s.name+"_speedup", s.sim.SpeedupVsFull)
		writeFloat(h, s.name+"_err", s.sim.ErrorPct)
		writeFloat(h, s.name+"_dram", s.sim.DRAMUtil)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
