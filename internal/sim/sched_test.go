package sim

import (
	"math"
	"sort"
	"testing"
	"unsafe"

	"pka/internal/stats"
)

// refWheel is the reference the bitmask timing wheel is checked against:
// every sleeping warp in a slice sorted by wake cycle.
type refWheel struct {
	sleeping []wakeEvent // sorted by at
	ready    []bool
}

func (r *refWheel) sleep(at int64, idx int32) {
	i := sort.Search(len(r.sleeping), func(i int) bool { return r.sleeping[i].at > at })
	r.sleeping = append(r.sleeping, wakeEvent{})
	copy(r.sleeping[i+1:], r.sleeping[i:])
	r.sleeping[i] = wakeEvent{at: at, idx: idx}
}

func (r *refWheel) drain(now int64) {
	n := 0
	for n < len(r.sleeping) && r.sleeping[n].at <= now {
		r.ready[r.sleeping[n].idx] = true
		n++
	}
	r.sleeping = r.sleeping[n:]
}

func (r *refWheel) nextWake() int64 {
	if len(r.sleeping) == 0 {
		return math.MaxInt64
	}
	return r.sleeping[0].at
}

// newTestSM sizes an SM's scheduler state for nw warp slots the way
// RunKernel does.
func newTestSM(nw int) *smState {
	words := (nw + 63) / 64
	return &smState{
		ready: make(readySet, words),
		wake:  make(wakeHeap, 0, nw),
		wheel: make([]uint64, wheelSize*words),
	}
}

// TestWheelMatchesSortedReference drives the timing wheel and the wake
// heap through random sleep/drain/nextWake sequences — stalls on both
// sides of the wheel horizon, clock jumps of up to 300 cycles between
// drains — and requires the ready set and the next wake to equal a sorted
// reference after every step, for one-word and multi-word SMs.
func TestWheelMatchesSortedReference(t *testing.T) {
	for _, nw := range []int{1, 40, 64, 65, 150} {
		rng := stats.NewRNG(uint64(nw))
		sm := newTestSM(nw)
		ref := &refWheel{ready: make([]bool, nw)}
		stall := func() int64 {
			if rng.Intn(4) == 0 {
				return 1 + int64(rng.Intn(400)) // far: mostly heap
			}
			return 1 + int64(rng.Intn(wheelSize-1)) // near: wheel
		}
		var now int64
		for idx := int32(0); idx < int32(nw); idx++ {
			at := stall()
			sm.sleep(at, now, idx)
			ref.sleep(at, idx)
		}
		for step := 0; step < 5000; step++ {
			switch rng.Intn(10) {
			case 0:
				now += 64 + int64(rng.Intn(240)) // past the whole wheel
			case 1, 2:
				now += int64(rng.Intn(64))
			default:
				now += int64(rng.Intn(4))
			}
			sm.drain(now)
			ref.drain(now)
			for i := 0; i < nw; i++ {
				if got := sm.ready[i>>6]>>(uint(i)&63)&1 == 1; got != ref.ready[i] {
					t.Fatalf("nw=%d step %d cycle %d: warp %d ready=%v, reference %v",
						nw, step, now, i, got, ref.ready[i])
				}
			}
			// Issue a random subset of the ready warps and put them back
			// to sleep, as the cycle loop does.
			for i := 0; i < nw; i++ {
				if !ref.ready[i] || rng.Intn(3) == 0 {
					continue
				}
				ref.ready[i] = false
				sm.ready.clear(i)
				at := now + stall()
				sm.sleep(at, now, int32(i))
				ref.sleep(at, int32(i))
			}
			if got, want := sm.nextWake(now), ref.nextWake(); got != want {
				t.Fatalf("nw=%d step %d cycle %d: nextWake = %d, reference %d", nw, step, now, got, want)
			}
		}
	}
}

// TestWarpSlotFitsHostLine pins warpSlot to one 64-byte host cache line.
func TestWarpSlotFitsHostLine(t *testing.T) {
	if n := unsafe.Sizeof(warpSlot{}); n != 64 {
		t.Errorf("warpSlot is %d bytes, want 64", n)
	}
}
