package sim

import (
	"math"
	"math/bits"
)

// This file holds the event-driven scheduler's data structures. The
// cycle loop used to rescan every warp slot of an SM on every active cycle
// — O(warps) work to find the ≤SchedulersPerSM warps that can actually
// issue. Instead, each SM keeps:
//
//   - a readySet bitset of warps whose stall has expired (nextReady <= now),
//     iterated in round-robin index order starting at rrPtr so the issue
//     order is identical to the old linear scan's,
//   - a bitmask timing wheel for near wakes: wheelSize buckets, each a warp
//     bitmask the width of the ready set, plus one occupancy word with a bit
//     per non-empty bucket. Sleeping is two ORs, draining ORs the due
//     buckets into the ready set, and the next near wake is a rotate plus a
//     trailing-zero count, and
//   - a wakeHeap of far wakes keyed on nextReady.
//
// Wake order within a cycle is irrelevant — every due warp reaches the
// ready set before any issue decision, and issue order is the ready set's
// index order alone — so a bucket needs no order among its warps. The
// simulator keeps each SM's next event time in a packed array beside the
// SMs (see Simulator.smNext), computed from nextWake when the SM idles.
//
// All of it is sized once per kernel (each warp holds at most one wheel
// bit or one heap slot), so the cycle loop stays allocation-free.

// wheelSize is the horizon of the per-SM timing wheel. Stalls shorter than
// this (ALU, tensor, shared memory, L1/scoreboard — the overwhelming
// majority of issues) are parked in an O(1) bucket instead of the heap;
// only far wakes (L2 and DRAM round trips) pay the O(log n) heap. It must
// stay 64: the occupancy word has one bit per bucket.
const wheelSize = 64

// sleep parks warp idx until cycle at (> now).
func (sm *smState) sleep(at, now int64, idx int32) {
	if at-now < wheelSize {
		b := int(at & (wheelSize - 1))
		sm.wheel[b*len(sm.ready)+int(idx>>6)] |= 1 << (uint(idx) & 63)
		sm.wheelOcc |= 1 << uint(b)
		return
	}
	sm.wake.push(at, idx)
}

// drain moves every warp due at or before now into the ready set. Wheel
// entries always satisfy at ∈ (lastDrain, lastDrain+wheelSize) — sleeps
// only happen while the SM is being processed, i.e. after a drain at the
// same cycle — so each bucket holds warps of a single wake cycle, and the
// buckets of cycles (lastDrain, now], all of them once that range spans
// wheelSize cycles, hold exactly the due warps.
func (sm *smState) drain(now int64) {
	if sm.wheelOcc != 0 {
		due := sm.wheelOcc
		if span := now - sm.lastDrain; span < wheelSize {
			due &= bits.RotateLeft64(1<<uint(span)-1, int((sm.lastDrain+1)&(wheelSize-1)))
		}
		sm.wheelOcc &^= due
		n := len(sm.ready)
		for due != 0 {
			b := bits.TrailingZeros64(due)
			due &= due - 1
			bucket := sm.wheel[b*n : b*n+n]
			for j, m := range bucket {
				sm.ready[j] |= m
				bucket[j] = 0
			}
		}
	}
	sm.lastDrain = now
	for len(sm.wake) > 0 && sm.wake[0].at <= now {
		sm.ready.set(int(sm.wake.pop().idx))
	}
}

// nextWake returns the earliest pending wake time after now, or
// math.MaxInt64 when no warp is sleeping. Called only right after a drain
// at now, when every wheel entry lies in (now, now+wheelSize), and only
// when the SM idles (no ready warp, no fresh block).
func (sm *smState) nextWake(now int64) int64 {
	min := int64(math.MaxInt64)
	if sm.wheelOcc != 0 {
		// Bit k of the rotated word is the bucket of cycle now+1+k.
		r := bits.RotateLeft64(sm.wheelOcc, -int((now+1)&(wheelSize-1)))
		min = now + 1 + int64(bits.TrailingZeros64(r))
	}
	if len(sm.wake) > 0 && sm.wake[0].at < min {
		min = sm.wake[0].at
	}
	return min
}

// wakeEvent schedules one sleeping warp's return to the ready set.
type wakeEvent struct {
	at  int64 // cycle at which the warp's nextReady elapses
	idx int32 // warp slot index within the SM
}

// wakeHeap is a binary min-heap on wakeEvent.at. Wake order among equal
// cycles is irrelevant: all warps with at <= now are drained into the
// ready set before any issue decision, and issue order is governed by the
// ready set's index order alone.
type wakeHeap []wakeEvent

// push inserts an event. The backing array is pre-sized to the SM's warp
// count (a warp has at most one pending wake), so append never grows it.
func (h *wakeHeap) push(at int64, idx int32) {
	q := append(*h, wakeEvent{at: at, idx: idx})
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q[p].at <= q[i].at {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	*h = q
}

// pop removes and returns the earliest event. Callers check len > 0 first.
func (h *wakeHeap) pop() wakeEvent {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q[r].at < q[l].at {
			m = r
		}
		if q[i].at <= q[m].at {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

// readySet is a bitset over an SM's warp slots.
type readySet []uint64

func (r readySet) set(i int)   { r[i>>6] |= 1 << (uint(i) & 63) }
func (r readySet) clear(i int) { r[i>>6] &^= 1 << (uint(i) & 63) }

// any reports whether any warp is ready.
func (r readySet) any() bool {
	for _, w := range r {
		if w != 0 {
			return true
		}
	}
	return false
}

// next returns the lowest set bit in [from, limit), or -1. The cycle loop
// calls it with [rrPtr, n) then [0, rrPtr) to reproduce the round-robin
// scan order of the original implementation exactly.
func (r readySet) next(from, limit int) int {
	if from >= limit {
		return -1
	}
	wi := from >> 6
	last := (limit - 1) >> 6
	w := r[wi] >> (uint(from) & 63) << (uint(from) & 63)
	for {
		if wi == last {
			if rem := uint(limit) & 63; rem != 0 {
				w &= 1<<rem - 1
			}
		}
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
		wi++
		if wi > last {
			return -1
		}
		w = r[wi]
	}
}
