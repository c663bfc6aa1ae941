package core

import (
	"testing"

	"pka/internal/artifact"
	"pka/internal/gpu"
	"pka/internal/obs"
	"pka/internal/parallel"
	"pka/internal/pks"
	"pka/internal/sampling"
	"pka/internal/workload"
)

func cfg() Config { return Config{Device: gpu.VoltaV100()} }

func TestEvaluateGaussian(t *testing.T) {
	w := workload.Find("Rodinia/gauss_208")
	ev, err := Evaluate(cfg(), w)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Full == nil {
		t.Fatal("gauss_208 should complete in full simulation")
	}
	if ev.PKS.SimWarpInstrs >= ev.Full.SimWarpInstrs {
		t.Error("PKS did not reduce simulated work")
	}
	if ev.PKS.SpeedupVsFull < 50 {
		t.Errorf("PKS speedup %.1fx, want large for 414 similar kernels", ev.PKS.SpeedupVsFull)
	}
	if ev.PKA.SimWarpInstrs > ev.PKS.SimWarpInstrs {
		t.Error("PKA simulated more than PKS")
	}
	// PKS's sampled-sim error should stay in the neighbourhood of the
	// simulator's own error vs silicon (Table 4's pattern).
	if diff := ev.PKS.ErrorPct - ev.FullErrorPct; diff > 40 {
		t.Errorf("PKS error %.1f%% far above sim error %.1f%%", ev.PKS.ErrorPct, ev.FullErrorPct)
	}
}

func TestEvaluateSingleKernelApp(t *testing.T) {
	w := workload.Find("Rodinia/hots_512")
	ev, err := Evaluate(cfg(), w)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Full == nil {
		t.Fatal("hotspot should complete in full simulation")
	}
	// One kernel, one group: PKS == full simulation.
	if ev.PKS.SpeedupVsFull < 0.99 || ev.PKS.SpeedupVsFull > 1.01 {
		t.Errorf("single-kernel PKS speedup = %.3f, want 1.0", ev.PKS.SpeedupVsFull)
	}
	if ev.PKS.ErrorPct > ev.FullErrorPct+1 {
		t.Errorf("PKS error %.2f%% vs sim error %.2f%%", ev.PKS.ErrorPct, ev.FullErrorPct)
	}
}

func TestEvaluateInfeasibleWorkloadStillProjects(t *testing.T) {
	w := workload.Find("MLPerf/3dunet_inf")
	c := cfg()
	// Keep the PKS profiling light for test speed.
	c.PKS = pks.Options{ClusterSampleMax: 2000}
	ev, err := Evaluate(c, w)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Full != nil {
		t.Skip("3dunet unexpectedly feasible; adjust budget expectations")
	}
	if ev.FullSimHours <= 0 {
		t.Error("infeasible workload should still get projected full-sim hours")
	}
	if ev.PKA.ProjCycles <= 0 || ev.PKA.SimWarpInstrs <= 0 {
		t.Error("PKA produced no projection")
	}
	if ev.PKA.SpeedupVsFull <= 1 {
		t.Errorf("PKA speedup %.2f on a huge workload", ev.PKA.SpeedupVsFull)
	}
	if ev.PKA.SimHours >= ev.FullSimHours {
		t.Error("PKA projected time should undercut full simulation")
	}
}

func TestSimHoursConversion(t *testing.T) {
	c := Config{}
	if got := c.SimHours(3000 * 3600); got != 1 {
		t.Errorf("SimHours = %v, want 1", got)
	}
	c.SimRate = 6000
	if got := c.SimHours(6000 * 3600 * 2); got != 2 {
		t.Errorf("SimHours = %v, want 2", got)
	}
}

func TestRunSampledWeightsGroups(t *testing.T) {
	w := workload.Find("Parboil/spmv") // 50 identical launches, 1 group
	c := cfg()
	sel, err := pks.Select(c.Device, w, c.PKS)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSampled(c, w, sel, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.ProjCycles <= 0 {
		t.Fatal("no projection")
	}
	// One rep simulated, weighted ~50x: projected cycles should be on
	// the order of 50x the simulated kernel cycles.
	if sel.K == 1 {
		perKernel := (got.ProjCycles - int64(w.N)*2500) / int64(w.N)
		if perKernel <= 0 {
			t.Errorf("per-kernel projection %d", perKernel)
		}
	}
	if got.DRAMUtil < 0 || got.DRAMUtil > 1 {
		t.Errorf("DRAM util %v", got.DRAMUtil)
	}
}

func TestEvaluateNilWorkload(t *testing.T) {
	if _, err := Evaluate(cfg(), nil); err == nil {
		t.Error("nil workload accepted")
	}
}

func TestPKAFasterOnLongKernels(t *testing.T) {
	// syrk is one long kernel: PKS gains nothing, PKP is the only lever
	// (the paper's syr2k/syrk rows).
	w := workload.Find("Polybench/syrk")
	c := cfg()
	sel, err := pks.Select(c.Device, w, c.PKS)
	if err != nil {
		t.Fatal(err)
	}
	noPKP, err := RunSampled(c, w, sel, false)
	if err != nil {
		t.Fatal(err)
	}
	withPKP, err := RunSampled(c, w, sel, true)
	if err != nil {
		t.Fatal(err)
	}
	if withPKP.SimWarpInstrs >= noPKP.SimWarpInstrs {
		t.Errorf("PKP did not cut the long kernel: %d vs %d warp instrs",
			withPKP.SimWarpInstrs, noPKP.SimWarpInstrs)
	}
}

// TestSimKernelsMatchSimTier: every fresh simulation reports through the
// simulator's hooks, full simulation included, so on a cold store the
// pka_sim_kernels_total counter equals the Exec ladder's sim-tier count
// within one process. Before full-sim tasks were wired, gauss_208 read 2
// kernels against 416 sim-tier tasks.
func TestSimKernelsMatchSimTier(t *testing.T) {
	store, err := artifact.Open(t.TempDir(), artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver()
	exec := sampling.NewExec(parallel.NewScheduler(2), store)
	exec.SetMetrics(o.ExecMetrics())
	c := cfg()
	c.Obs = o
	c.Exec = exec
	ev, err := Evaluate(c, workload.Find("Rodinia/gauss_208"))
	if err != nil {
		t.Fatal(err)
	}
	simTier := o.ExecMetrics().Tasks[sampling.TierSim].Value()
	kernels := o.SimMetrics().Kernels.Value()
	if simTier != kernels {
		t.Errorf("pka_sim_kernels_total = %d, sim-tier tasks = %d", kernels, simTier)
	}
	if min := int64(ev.Full.KernelsSimulated); kernels <= min {
		t.Errorf("pka_sim_kernels_total = %d, want above the %d full-sim kernels", kernels, min)
	}
}
