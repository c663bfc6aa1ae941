package sim

import (
	"testing"
	"testing/quick"

	"pka/internal/gpu"
	"pka/internal/trace"
)

// Conservation: a completed run with no block imbalance issues exactly the
// expected warp-instruction count, for arbitrary small kernels.
func TestWarpInstructionConservationProperty(t *testing.T) {
	s := New(gpu.VoltaV100())
	f := func(blocksRaw, computeRaw, loadsRaw uint8, seed uint16) bool {
		k := trace.KernelDesc{
			Name:  "prop",
			Grid:  trace.D1(int(blocksRaw%50) + 1),
			Block: trace.D1(128),
			Mix: trace.InstrMix{
				Compute:     int(computeRaw%40) + 1,
				GlobalLoads: int(loadsRaw % 8),
			},
			CoalescingFactor: 4,
			WorkingSetBytes:  1 << 20,
			StridedFraction:  0.8,
			DivergenceEff:    1,
			Seed:             uint64(seed) + 1,
		}
		res, err := s.RunKernel(&k, Options{})
		if err != nil {
			return false
		}
		return res.WarpInstrs == res.ExpectedWarpInstrs &&
			res.BlocksCompleted == res.BlocksTotal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestExpectedWarpInstrsOnTruncatedRun(t *testing.T) {
	s := New(gpu.VoltaV100())
	k := trace.KernelDesc{
		Name: "trunc", Grid: trace.D1(640), Block: trace.D1(256),
		Mix:              trace.InstrMix{Compute: 100},
		CoalescingFactor: 4, WorkingSetBytes: 1 << 20, StridedFraction: 1,
		DivergenceEff: 1, Seed: 3,
	}
	res, err := s.RunKernel(&k, Options{
		Controller: ControllerFunc(func(t *Telemetry) bool { return t.WarpInstrs > 10000 }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.StoppedEarly {
		t.Fatal("not truncated")
	}
	want := int64(640 * 8 * 100)
	if res.ExpectedWarpInstrs != want {
		t.Errorf("expected warp instrs = %d, want %d", res.ExpectedWarpInstrs, want)
	}
	if res.WarpInstrs >= res.ExpectedWarpInstrs {
		t.Error("truncated run executed everything")
	}
}

// Warm caches: running the same cache-friendly kernel twice on one
// Simulator must not be slower the second time.
func TestWarmCachesDoNotSlowDown(t *testing.T) {
	s := New(gpu.VoltaV100())
	k := trace.KernelDesc{
		Name: "warm", Grid: trace.D1(320), Block: trace.D1(256),
		Mix:              trace.InstrMix{Compute: 40, GlobalLoads: 10},
		CoalescingFactor: 4, WorkingSetBytes: 2 << 20, StridedFraction: 0.9,
		DivergenceEff: 1, Seed: 5,
	}
	first, err := s.RunKernel(&k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.RunKernel(&k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if second.Cycles > first.Cycles+first.Cycles/10 {
		t.Errorf("warm run slower: %d vs %d cycles", second.Cycles, first.Cycles)
	}
}

// Memory-level parallelism: back-to-back loads must overlap (the 2-deep
// scoreboard), so a load-pair kernel finishes in well under 2x the
// single-load latency chain.
func TestLoadOverlap(t *testing.T) {
	mk := func(loads int) trace.KernelDesc {
		return trace.KernelDesc{
			Name: "mlp", Grid: trace.D1(80), Block: trace.D1(32), // 1 warp per block
			Mix:              trace.InstrMix{GlobalLoads: loads, Compute: 1},
			CoalescingFactor: 4, WorkingSetBytes: 1 << 30, StridedFraction: 0,
			DivergenceEff: 1, Seed: 7,
		}
	}
	one := mk(8)
	two := mk(16)
	r1, err := New(gpu.VoltaV100()).RunKernel(&one, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(gpu.VoltaV100()).RunKernel(&two, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(r2.Cycles) / float64(r1.Cycles)
	if ratio > 2.4 {
		t.Errorf("doubling loads scaled cycles %.2fx; scoreboard overlap missing", ratio)
	}
}

func TestDivergenceReducesThreadIPC(t *testing.T) {
	mk := func(div float64) trace.KernelDesc {
		return trace.KernelDesc{
			Name: "div", Grid: trace.D1(640), Block: trace.D1(256),
			Mix:              trace.InstrMix{Compute: 100, GlobalLoads: 2},
			CoalescingFactor: 4, WorkingSetBytes: 1 << 20, StridedFraction: 1,
			DivergenceEff: div, Seed: 11,
		}
	}
	full := mk(1.0)
	half := mk(0.5)
	rf, err := New(gpu.VoltaV100()).RunKernel(&full, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rh, err := New(gpu.VoltaV100()).RunKernel(&half, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rh.IPC >= rf.IPC {
		t.Errorf("divergent kernel thread IPC %.0f >= convergent %.0f", rh.IPC, rf.IPC)
	}
	if rh.WarpInstrs != rf.WarpInstrs {
		t.Error("divergence should not change warp instruction count")
	}
}

func TestGenerationsRankOnComputeKernel(t *testing.T) {
	k := trace.KernelDesc{
		Name: "rank", Grid: trace.D1(1280), Block: trace.D1(256),
		Mix:              trace.InstrMix{Compute: 200, GlobalLoads: 2},
		CoalescingFactor: 4, WorkingSetBytes: 1 << 20, StridedFraction: 1,
		DivergenceEff: 1, Seed: 13,
	}
	v, err := New(gpu.VoltaV100()).RunKernel(&k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tu, err := New(gpu.TuringRTX2060()).RunKernel(&k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The 2060 has 30 SMs vs the V100's 80: a compute-bound kernel must
	// take substantially more cycles there.
	if float64(tu.Cycles) < 1.5*float64(v.Cycles) {
		t.Errorf("RTX 2060 cycles %d vs V100 %d; SM scaling missing", tu.Cycles, v.Cycles)
	}
}

// TestLargestWorkingSetFitsCacheTags: the caches store 32-bit tags, and
// trace.MaxWorkingSetBytes is set so that every address a valid kernel can
// touch has a tag that fits on every device. The top address must be
// cacheable in each device's L1 and L2, a kernel spread over the largest
// working set must run, and one byte more must be refused by validation.
func TestLargestWorkingSetFitsCacheTags(t *testing.T) {
	for _, dev := range []gpu.Device{gpu.VoltaV100(), gpu.TuringRTX2060(), gpu.AmpereRTX3070()} {
		s := New(dev)
		top := uint64(trace.MaxWorkingSetBytes) - 1
		if s.l1[0].Access(top) || !s.l1[0].Access(top) || s.l2.Access(top) || !s.l2.Access(top) {
			t.Fatalf("%s: top address not cached", dev.Name)
		}
		k := trace.KernelDesc{
			Name: "huge-ws", Grid: trace.D1(40), Block: trace.D1(128),
			Mix:              trace.InstrMix{Compute: 4, GlobalLoads: 8},
			CoalescingFactor: 8, WorkingSetBytes: trace.MaxWorkingSetBytes,
			DivergenceEff: 1, Seed: 5,
		}
		if _, err := New(dev).RunKernel(&k, Options{}); err != nil {
			t.Fatalf("%s: %v", dev.Name, err)
		}
		k.WorkingSetBytes++
		if _, err := New(dev).RunKernel(&k, Options{}); err == nil {
			t.Fatalf("%s: working set above trace.MaxWorkingSetBytes accepted", dev.Name)
		}
	}
}
