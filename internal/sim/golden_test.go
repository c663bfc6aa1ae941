package sim

import (
	"math"
	"testing"

	"pka/internal/gpu"
	"pka/internal/trace"
)

// This file pins the simulator's observable behavior bit-for-bit: for a
// battery of kernels covering every instruction class, device, and loop
// feature (idle jumps, truncation, trace buckets, warm caches, block
// imbalance), it folds the complete per-cycle telemetry stream and the
// final KernelResult into one FNV-1a hash and compares against recorded
// constants. Any change to issue order, cycle counts, cache behavior, or
// the telemetry a Controller observes shifts the hash — the event-driven
// scheduler must reproduce the original round-robin scan exactly, and this
// is the test that holds it to that.

type goldenHash struct{ h uint64 }

func newGoldenHash() *goldenHash { return &goldenHash{h: 14695981039346656037} }

func (g *goldenHash) u64(v uint64) {
	for i := 0; i < 8; i++ {
		g.h ^= v & 0xFF
		g.h *= 1099511628211
		v >>= 8
	}
}

func (g *goldenHash) i64(v int64)   { g.u64(uint64(v)) }
func (g *goldenHash) f64(v float64) { g.u64(math.Float64bits(v)) }
func (g *goldenHash) boolean(v bool) {
	if v {
		g.u64(1)
	} else {
		g.u64(0)
	}
}

// tickHash returns a Controller that folds every telemetry field of every
// tick into the hash, optionally stopping when stop returns true.
func (g *goldenHash) controller(stop func(*Telemetry) bool) Controller {
	return ControllerFunc(func(t *Telemetry) bool {
		g.i64(t.Cycle)
		g.i64(t.IdleGap)
		g.f64(t.ThreadInstrs)
		g.i64(t.WarpInstrs)
		g.f64(t.IssuedThisCycle)
		g.u64(uint64(t.BlocksCompleted))
		g.u64(uint64(t.BlocksTotal))
		g.u64(uint64(t.WaveSize))
		return stop != nil && stop(t)
	})
}

func (g *goldenHash) result(r *KernelResult) {
	g.i64(r.Cycles)
	g.i64(r.WarpInstrs)
	g.i64(r.ExpectedWarpInstrs)
	g.f64(r.ThreadInstrs)
	g.f64(r.IPC)
	g.f64(r.L2MissRate)
	g.f64(r.DRAMUtil)
	g.u64(uint64(r.BlocksCompleted))
	g.u64(uint64(r.BlocksTotal))
	g.u64(uint64(r.WaveSize))
	g.boolean(r.StoppedEarly)
	g.u64(uint64(len(r.Trace)))
	for _, s := range r.Trace {
		g.i64(s.Cycle)
		g.f64(s.IPC)
		g.f64(s.L2Miss)
		g.f64(s.DRAMUtil)
	}
}

// goldenCase is one pinned scenario: the kernels run back-to-back on ONE
// simulator (warm L2/DRAM state across kernels is part of the pin).
type goldenCase struct {
	name    string
	dev     gpu.Device
	kernels []trace.KernelDesc
	opts    func(g *goldenHash) Options
	want    uint64
}

func goldenCases() []goldenCase {
	allOps := trace.KernelDesc{
		Name: "all-ops", Grid: trace.D1(320), Block: trace.D1(192),
		Mix: trace.InstrMix{
			Compute: 40, GlobalLoads: 8, GlobalStores: 4, LocalLoads: 3,
			SharedLoads: 6, SharedStores: 5, GlobalAtomics: 2, TensorOps: 7,
		},
		CoalescingFactor: 3.3, WorkingSetBytes: 24 << 20, StridedFraction: 0.55,
		DivergenceEff: 0.87, Seed: 1234,
	}
	memory := trace.KernelDesc{
		Name: "memory", Grid: trace.D1(640), Block: trace.D1(256),
		Mix:              trace.InstrMix{Compute: 10, GlobalLoads: 40},
		CoalescingFactor: 8, WorkingSetBytes: 512 << 20, StridedFraction: 0.2,
		DivergenceEff: 1, Seed: 2,
	}
	compute := trace.KernelDesc{
		Name: "compute", Grid: trace.D1(410), Block: trace.D1(256),
		Mix:              trace.InstrMix{Compute: 200, GlobalLoads: 2},
		CoalescingFactor: 4, WorkingSetBytes: 64 << 10, StridedFraction: 1,
		DivergenceEff: 1, Seed: 1,
	}
	imbalanced := compute
	imbalanced.Name = "imbalanced"
	imbalanced.BlockImbalance = 1.5
	imbalanced.Seed = 77
	tiny := compute
	tiny.Name = "tiny"
	tiny.Grid = trace.D1(3)
	oddWS := trace.KernelDesc{
		// Non-power-of-two working set exercises the modulo (not mask)
		// address-wrap path.
		Name: "odd-ws", Grid: trace.D1(200), Block: trace.D1(160),
		Mix:              trace.InstrMix{Compute: 30, GlobalLoads: 12, GlobalStores: 6},
		CoalescingFactor: 4, WorkingSetBytes: 3*(1<<20) + 128*37, StridedFraction: 0.5,
		DivergenceEff: 0.93, Seed: 909,
	}

	// No registry device holds more than 64 warps per SM, so this variant
	// pins the multi-word ready set and timing-wheel buckets: 128 warp
	// slots per SM, 126 of them used by 192-thread blocks and 125 by
	// 160-thread blocks (a partial last word). Four SMs keep every slot
	// busy for several waves.
	wide := gpu.VoltaV100().WithSMs(4)
	wide.Name = "Tesla V100 (4 SMs, 128 warps/SM)"
	wide.MaxWarpsPerSM = 128
	wide.MaxThreadsPerSM = 4096

	return []goldenCase{
		{
			name: "wide-sm-volta", dev: wide,
			kernels: []trace.KernelDesc{allOps, oddWS},
			want:    0xac39b9991768227d,
		},
		{
			name: "all-ops-volta", dev: gpu.VoltaV100(),
			kernels: []trace.KernelDesc{allOps},
			want:    0xcb72922f74f7d5d3,
		},
		{
			name: "warm-sequence-volta", dev: gpu.VoltaV100(),
			// Same kernel twice (warm caches), then a different one: pins
			// cross-kernel L2/DRAM state handling.
			kernels: []trace.KernelDesc{compute, compute, memory},
			want:    0x0f6dd5bd33b9ad4c,
		},
		{
			name: "memory-turing", dev: gpu.TuringRTX2060(),
			kernels: []trace.KernelDesc{memory, oddWS},
			want:    0xfd5bf7e949670194,
		},
		{
			name: "imbalanced-ampere", dev: gpu.AmpereRTX3070(),
			kernels: []trace.KernelDesc{imbalanced, tiny},
			want:    0x33c813a2744fbf7e,
		},
		{
			name: "truncated-volta", dev: gpu.VoltaV100(),
			kernels: []trace.KernelDesc{memory},
			opts: func(g *goldenHash) Options {
				return Options{
					Controller: g.controller(func(t *Telemetry) bool {
						return t.WarpInstrs > 40000
					}),
					TraceEvery: 150,
				}
			},
			want: 0x37f13b7b9b0765f3,
		},
		{
			name: "traced-maxcycles-volta", dev: gpu.VoltaV100(),
			kernels: []trace.KernelDesc{allOps},
			opts: func(g *goldenHash) Options {
				return Options{TraceEvery: 97, MaxCycles: 20000}
			},
			want: 0x0bdcff9fe6381cd3,
		},
	}
}

func TestGoldenTelemetryHashes(t *testing.T) {
	for _, tc := range goldenCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			g := newGoldenHash()
			s := New(tc.dev)
			for i := range tc.kernels {
				var opts Options
				if tc.opts != nil {
					opts = tc.opts(g)
				}
				if opts.Controller == nil {
					opts.Controller = g.controller(nil)
				}
				res, err := s.RunKernel(&tc.kernels[i], opts)
				if err != nil {
					t.Fatal(err)
				}
				g.result(res)
			}
			if g.h != tc.want {
				t.Errorf("telemetry/result hash = %#016x, want %#016x (simulator output changed)", g.h, tc.want)
			}
		})
	}
}

// TestGoldenWideCaseSpansWords guards the wide-sm golden case: its kernels
// must occupy more than 64 warp slots per SM and more blocks than one wave
// holds, or the case would stop pinning the multi-word path.
func TestGoldenWideCaseSpansWords(t *testing.T) {
	for _, tc := range goldenCases() {
		if tc.name != "wide-sm-volta" {
			continue
		}
		for i := range tc.kernels {
			k := &tc.kernels[i]
			occ := tc.dev.ComputeOccupancy(k.Resources())
			if occ.WarpsPerSM <= 64 || k.Grid.Count() <= occ.BlocksPerSM*tc.dev.NumSMs {
				t.Errorf("%s: %d warps/SM, %d blocks for a wave of %d", k.Name,
					occ.WarpsPerSM, k.Grid.Count(), occ.BlocksPerSM*tc.dev.NumSMs)
			}
		}
		return
	}
	t.Fatal("wide-sm-volta case missing")
}
