// Package mem models the GPU memory system used by the cycle-level
// simulator: set-associative LRU caches for L1/L2 and a latency+bandwidth
// DRAM channel. The models are deliberately structural — real tag arrays
// and a real bandwidth bottleneck — because Principal Kernel Projection's
// stability signal depends on memory contention emerging rather than being
// scripted.
package mem

import (
	"math"
	"math/bits"
	"sort"
)

// emptyTag marks an invalid way. A stored tag is line >> setBits, and
// Access refuses any address whose tag would reach emptyTag, so the
// sentinel never equals a real tag.
const emptyTag = math.MaxUint32

// way is one cache way: 8 bytes, so an 8-way set fills one 64-byte host
// line and the whole model of a simulated GPU stays small enough for the
// host's L2.
type way struct {
	tag uint32 // line >> setBits, or emptyTag
	// rec is the way's recency stamp: 0 for an empty way, otherwise unique
	// within the set and higher for more recent use.
	rec uint32
}

// Cache is a set-associative cache with true-LRU replacement and
// write-allocate policy. It tracks hit/miss counts for miss-rate telemetry.
type Cache struct {
	ways      int
	numSets   int
	setMask   uint64 // numSets-1 when numSets is a power of two, else 0
	lineShift uint
	// setBits is floor(log2(numSets)). Two lines of one set differ by a
	// multiple of numSets >= 1<<setBits, so line >> setBits tells them
	// apart even when numSets is not a power of two.
	setBits uint
	sets    []way // sets[set*ways+way]
	clock   uint32

	hits, misses int64
}

// NewCache builds a cache of sizeBytes organized as ways-associative with
// the given line size. Size is rounded down to a whole number of sets; the
// cache always has at least one set. Line size must be a power of two.
//
// Tags are 32 bits wide: Access panics on an address at or above
// (2^32-1) << (log2(lineBytes) + floor(log2(sets))) bytes — just under
// 4 TiB for 128-byte lines and 8 sets, more with more sets, and above
// the largest working set trace.KernelDesc.Validate accepts.
func NewCache(sizeBytes, ways, lineBytes int) *Cache {
	if ways < 1 {
		ways = 1
	}
	if lineBytes < 1 || lineBytes&(lineBytes-1) != 0 {
		panic("mem: line size must be a positive power of two")
	}
	numSets := sizeBytes / (ways * lineBytes)
	if numSets < 1 {
		numSets = 1
	}
	c := &Cache{
		ways:      ways,
		numSets:   numSets,
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		setBits:   uint(bits.Len(uint(numSets)) - 1),
		sets:      make([]way, numSets*ways),
	}
	if numSets&(numSets-1) == 0 {
		c.setMask = uint64(numSets - 1)
	}
	c.Flush()
	return c
}

// Access looks up addr, allocating the line on a miss (for both reads and
// writes), and reports whether it hit. The tag scan finds a hit; on a
// miss a second scan picks the victim. Empty ways carry recency 0, so the
// first empty way wins over every valid one, and among valid ways the
// least recently used does. Kept apart, the tag scan's branches stay
// predictable: BenchmarkCacheAccess/l1-volta/random took ~35% less time
// than with the victim search folded into the tag scan.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineShift
	var set int
	if c.setMask != 0 {
		set = int(line & c.setMask)
	} else {
		set = int(line % uint64(c.numSets))
	}
	t := line >> c.setBits
	if t >= emptyTag {
		panic("mem: address beyond the cache's 32-bit tag range")
	}
	tag := uint32(t)
	c.clock++
	if c.clock == 0 {
		c.renumber()
	}

	base := set * c.ways
	ws := c.sets[base : base+c.ways]
	for w := range ws {
		if ws[w].tag == tag {
			ws[w].rec = c.clock
			c.hits++
			return true
		}
	}
	victim := 0
	oldest := ws[0].rec
	for w := 1; w < len(ws); w++ {
		if r := ws[w].rec; r < oldest {
			oldest, victim = r, w
		}
	}
	c.misses++
	ws[victim] = way{tag: tag, rec: c.clock}
	return false
}

// renumber runs when the 32-bit recency clock wraps. It replaces each
// set's valid stamps by their ranks 1..k, which keeps every set's LRU
// order, and restarts the clock above every rank.
func (c *Cache) renumber() {
	order := make([]int, c.ways)
	for base := 0; base < len(c.sets); base += c.ways {
		ws := c.sets[base : base+c.ways]
		order = order[:0]
		for w := range ws {
			if ws[w].rec != 0 {
				order = append(order, w)
			}
		}
		sort.Slice(order, func(i, j int) bool { return ws[order[i]].rec < ws[order[j]].rec })
		for rank, w := range order {
			ws[w].rec = uint32(rank + 1)
		}
	}
	c.clock = uint32(c.ways) + 1
}

// Hits returns the cumulative hit count.
func (c *Cache) Hits() int64 { return c.hits }

// Misses returns the cumulative miss count.
func (c *Cache) Misses() int64 { return c.misses }

// Accesses returns hits + misses.
func (c *Cache) Accesses() int64 { return c.hits + c.misses }

// MissRate returns misses / accesses, or 0 before any access.
func (c *Cache) MissRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.misses) / float64(total)
}

// ResetStats zeroes the hit/miss counters without flushing cache contents,
// so per-kernel telemetry can be isolated while warmed state persists.
func (c *Cache) ResetStats() { c.hits, c.misses = 0, 0 }

// Flush invalidates every line and clears statistics.
func (c *Cache) Flush() {
	for i := range c.sets {
		c.sets[i] = way{tag: emptyTag}
	}
	c.clock = 0
	c.ResetStats()
}
