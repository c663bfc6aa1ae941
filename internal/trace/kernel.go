// Package trace defines the kernel-launch representation shared by every
// execution substrate in the repository. A KernelDesc captures what the
// paper's tooling observes about a CUDA kernel launch — grid/block shape,
// resource usage, dynamic instruction mix, and memory behaviour — without
// any program semantics. PKA itself never looks deeper than this: both
// Principal Kernel Selection's feature vectors (Table 2) and the simulator's
// synthetic instruction streams derive from it.
package trace

import (
	"fmt"

	"pka/internal/gpu"
)

// Dim3 is a CUDA launch dimension.
type Dim3 struct {
	X, Y, Z int
}

// D1 is shorthand for a one-dimensional Dim3.
func D1(x int) Dim3 { return Dim3{X: x, Y: 1, Z: 1} }

// D2 is shorthand for a two-dimensional Dim3.
func D2(x, y int) Dim3 { return Dim3{X: x, Y: y, Z: 1} }

// Count returns the total element count of the dimension.
func (d Dim3) Count() int {
	x, y, z := d.X, d.Y, d.Z
	if x < 1 {
		x = 1
	}
	if y < 1 {
		y = 1
	}
	if z < 1 {
		z = 1
	}
	return x * y * z
}

// String implements fmt.Stringer.
func (d Dim3) String() string { return fmt.Sprintf("(%d,%d,%d)", d.X, d.Y, d.Z) }

// InstrMix holds per-thread dynamic instruction counts for one kernel.
type InstrMix struct {
	GlobalLoads   int
	GlobalStores  int
	LocalLoads    int
	SharedLoads   int
	SharedStores  int
	GlobalAtomics int
	Compute       int // ALU/FPU instructions
	TensorOps     int // tensor-core MMA instructions
}

// Total returns the per-thread dynamic instruction count.
func (m InstrMix) Total() int {
	return m.GlobalLoads + m.GlobalStores + m.LocalLoads + m.SharedLoads +
		m.SharedStores + m.GlobalAtomics + m.Compute + m.TensorOps
}

// MemoryOps returns the per-thread count of memory instructions.
func (m InstrMix) MemoryOps() int {
	return m.GlobalLoads + m.GlobalStores + m.LocalLoads + m.SharedLoads +
		m.SharedStores + m.GlobalAtomics
}

// GlobalOps returns per-thread global-memory instructions (the ones that
// traverse L1/L2/DRAM).
func (m InstrMix) GlobalOps() int {
	return m.GlobalLoads + m.GlobalStores + m.LocalLoads + m.GlobalAtomics
}

// KernelDesc describes one kernel launch.
type KernelDesc struct {
	ID   int    // chronological launch index within the workload
	Name string // mangled-ish kernel name (clusters are name-independent)

	Grid  Dim3
	Block Dim3

	RegsPerThread     int
	SharedMemPerBlock int // bytes

	Mix InstrMix

	// CoalescingFactor is the average number of 32-byte sectors touched by
	// one warp-level global access: 1 for perfectly coalesced unit-stride
	// float4 loads up to 32 for fully scattered access.
	CoalescingFactor float64

	// WorkingSetBytes is the kernel's resident data footprint, which
	// drives cache hit rates in both execution models.
	WorkingSetBytes int64

	// StridedFraction is the probability that a global access follows a
	// streaming (unit-stride) pattern rather than an irregular one.
	StridedFraction float64

	// DivergenceEff is average active lanes per warp instruction divided
	// by warp size, i.e. Nsight's thread_inst_executed_per_inst_executed
	// ratio normalized to [0, 1]. 1 means no control divergence.
	DivergenceEff float64

	// BlockImbalance is the coefficient of variation of per-block work.
	// Regular kernels are ~0; graph workloads can exceed 1.
	BlockImbalance float64

	// Seed makes the kernel's synthetic address/imbalance streams
	// deterministic and distinct between kernels.
	Seed uint64
}

// MaxWorkingSetBytes bounds KernelDesc.WorkingSetBytes at 1 TiB. The
// simulator's caches store 32-bit tags, and with every device's cache
// geometry (128-byte lines, at least 64 sets) this bound keeps each tag
// of each address a kernel can touch below 2^32-1, so no two lines alias.
const MaxWorkingSetBytes = 1 << 40

// Validate reports structural problems that would make a kernel
// unexecutable on any substrate.
func (k *KernelDesc) Validate() error {
	if k.Grid.X < 1 || k.Grid.Y < 1 || k.Grid.Z < 1 {
		return fmt.Errorf("trace: kernel %q has empty grid %s", k.Name, k.Grid)
	}
	if k.Block.X < 1 || k.Block.Y < 1 || k.Block.Z < 1 {
		return fmt.Errorf("trace: kernel %q has empty block %s", k.Name, k.Block)
	}
	tpb := k.Block.Count()
	if tpb > 1024 {
		return fmt.Errorf("trace: kernel %q has invalid block size %d", k.Name, tpb)
	}
	if k.Mix.Total() < 1 {
		return fmt.Errorf("trace: kernel %q executes no instructions", k.Name)
	}
	if k.CoalescingFactor < 1 || k.CoalescingFactor > 32 {
		return fmt.Errorf("trace: kernel %q coalescing factor %.2f outside [1,32]", k.Name, k.CoalescingFactor)
	}
	if k.DivergenceEff <= 0 || k.DivergenceEff > 1 {
		return fmt.Errorf("trace: kernel %q divergence efficiency %.2f outside (0,1]", k.Name, k.DivergenceEff)
	}
	if k.StridedFraction < 0 || k.StridedFraction > 1 {
		return fmt.Errorf("trace: kernel %q strided fraction %.2f outside [0,1]", k.Name, k.StridedFraction)
	}
	if k.BlockImbalance < 0 {
		return fmt.Errorf("trace: kernel %q negative block imbalance", k.Name)
	}
	if k.WorkingSetBytes < 0 || k.WorkingSetBytes > MaxWorkingSetBytes {
		return fmt.Errorf("trace: kernel %q working set %d bytes outside [0, %d]", k.Name, k.WorkingSetBytes, int64(MaxWorkingSetBytes))
	}
	return nil
}

// Resources adapts the kernel to the gpu package's occupancy input.
func (k *KernelDesc) Resources() gpu.KernelResources {
	return gpu.KernelResources{
		ThreadsPerBlock:   k.Block.Count(),
		RegsPerThread:     k.RegsPerThread,
		SharedMemPerBlock: k.SharedMemPerBlock,
	}
}

// Threads returns the total thread count of the launch.
func (k *KernelDesc) Threads() int { return k.Grid.Count() * k.Block.Count() }

// WarpsPerBlock returns warps per thread block on a 32-lane machine.
func (k *KernelDesc) WarpsPerBlock() int { return (k.Block.Count() + 31) / 32 }

// TotalWarpInstructions returns the dynamic warp-level instruction count of
// the launch on the given device generation (per-thread mix × warps, scaled
// by the generation's ISA representation).
func (k *KernelDesc) TotalWarpInstructions(dev gpu.Device) int64 {
	warps := int64(k.Grid.Count()) * int64(k.WarpsPerBlock())
	return int64(float64(warps*int64(k.Mix.Total())) * dev.ISAScale)
}
