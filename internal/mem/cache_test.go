package mem

import (
	"math"
	"testing"

	"pka/internal/stats"
)

// refCache is the reference the compact cache is checked against: the
// earlier model with separate tag, valid and 64-bit recency arrays, full
// 64-bit line tags, and a victim search that takes the first invalid way,
// else the least recently used.
type refCache struct {
	ways, numSets int
	lineShift     uint
	tags          []uint64
	valid         []bool
	lru           []uint64
	clock         uint64
}

func newRefCache(sizeBytes, ways, lineBytes int) *refCache {
	numSets := sizeBytes / (ways * lineBytes)
	if numSets < 1 {
		numSets = 1
	}
	shift := uint(0)
	for 1<<shift != lineBytes {
		shift++
	}
	n := numSets * ways
	return &refCache{ways: ways, numSets: numSets, lineShift: shift,
		tags: make([]uint64, n), valid: make([]bool, n), lru: make([]uint64, n)}
}

func (c *refCache) access(addr uint64) bool {
	line := addr >> c.lineShift
	base := int(line%uint64(c.numSets)) * c.ways
	c.clock++
	firstInvalid, victim := -1, 0
	oldest := ^uint64(0)
	for w := base; w < base+c.ways; w++ {
		if !c.valid[w] {
			if firstInvalid < 0 {
				firstInvalid = w
			}
			continue
		}
		if c.tags[w] == line {
			c.lru[w] = c.clock
			return true
		}
		if c.lru[w] < oldest {
			oldest, victim = c.lru[w], w
		}
	}
	if firstInvalid >= 0 {
		victim = firstInvalid
	}
	c.tags[victim], c.valid[victim], c.lru[victim] = line, true, c.clock
	return false
}

func (c *refCache) flush() {
	for i := range c.valid {
		c.valid[i] = false
	}
	c.clock = 0
}

// cacheShape is one geometry under test.
type cacheShape struct {
	name                  string
	size, ways, lineBytes int
}

var cacheShapes = []cacheShape{
	{"l1-volta", 128 << 10, 8, 128},  // 128 sets
	{"l1-turing", 96 << 10, 8, 128},  // 96 sets: not a power of two
	{"l2-volta", 6 << 20, 16, 128},   // 3072 sets: not a power of two
	{"tiny-3set", 3 * 4 * 64, 4, 64}, // heavy conflict, odd set count
	{"one-set", 16, 4, 128},          // clamped to a single set
}

// addrStream yields a deterministic address sequence over a footprint
// of ws bytes.
type addrStream func(rng *stats.RNG, i int, ws uint64) uint64

var addrStreams = map[string]addrStream{
	"random": func(rng *stats.RNG, _ int, ws uint64) uint64 { return rng.Uint64() % ws },
	// Eight interleaved sector-granular cursors, the simulator's strided
	// pattern.
	"strided": func(_ *stats.RNG, i int, ws uint64) uint64 {
		cur := uint64(i % 8)
		return (cur*ws/8 + uint64(i/8)*32) % ws
	},
	// A hot region hit most of the time plus a cold tail.
	"hot-cold": func(rng *stats.RNG, _ int, ws uint64) uint64 {
		if rng.Intn(10) < 8 {
			return rng.Uint64() % (ws / 16)
		}
		return rng.Uint64() % ws
	},
}

// runDifferential feeds the same stream to both models and fails on the
// first access where hit/miss differs. hook, when set, runs before access
// i on the compact cache (a Flush or a forced clock position).
func runDifferential(t *testing.T, sh cacheShape, stream addrStream, n int, hook func(i int, c *Cache, r *refCache)) {
	t.Helper()
	c := NewCache(sh.size, sh.ways, sh.lineBytes)
	r := newRefCache(sh.size, sh.ways, sh.lineBytes)
	rng := stats.NewRNG(uint64(sh.size) ^ uint64(sh.ways))
	ws := uint64(sh.size) * 3
	var hits, total int64 // since the last Flush, which zeroes the counters
	var allHits int
	for i := 0; i < n; i++ {
		if hook != nil {
			hook(i, c, r)
			if c.Accesses() == 0 {
				hits, total = 0, 0
			}
		}
		addr := stream(rng, i, ws)
		got, want := c.Access(addr), r.access(addr)
		if got != want {
			t.Fatalf("access %d (addr %#x): hit=%v, reference %v", i, addr, got, want)
		}
		total++
		if got {
			hits++
			allHits++
		}
	}
	if c.Hits() != hits || c.Misses() != total-hits {
		t.Fatalf("counters hits=%d misses=%d, want %d/%d", c.Hits(), c.Misses(), hits, total-hits)
	}
	if allHits == 0 || allHits == n {
		t.Fatalf("stream gave %d hits of %d: exercises only one path", allHits, n)
	}
}

// TestCacheMatchesReference requires the compact cache's hit/miss sequence
// to equal the three-array reference on every shape and stream.
func TestCacheMatchesReference(t *testing.T) {
	for _, sh := range cacheShapes {
		for name, stream := range addrStreams {
			t.Run(sh.name+"/"+name, func(t *testing.T) {
				runDifferential(t, sh, stream, 200_000, nil)
			})
		}
	}
}

// TestCacheFlushMatchesReference flushes both models mid-stream, twice.
func TestCacheFlushMatchesReference(t *testing.T) {
	for _, sh := range cacheShapes {
		t.Run(sh.name, func(t *testing.T) {
			runDifferential(t, sh, addrStreams["hot-cold"], 100_000, func(i int, c *Cache, r *refCache) {
				if i == 30_000 || i == 70_000 {
					c.Flush()
					r.flush()
				}
			})
		})
	}
}

// TestCacheRecencyWrapMatchesReference forces the 32-bit recency clock to
// the edge of wrapping — early, while sets still hold empty ways, and
// again once they are full — and requires the LRU decisions after each
// renumbering to stay identical to the reference's 64-bit clock.
func TestCacheRecencyWrapMatchesReference(t *testing.T) {
	for _, sh := range cacheShapes {
		t.Run(sh.name, func(t *testing.T) {
			wraps := 0
			runDifferential(t, sh, addrStreams["hot-cold"], 120_000, func(i int, c *Cache, _ *refCache) {
				switch i {
				case 500, 60_000, 60_100:
					c.clock = math.MaxUint32 - 7
				case 510, 60_010, 60_110:
					if c.clock > uint32(sh.ways)+8 {
						t.Fatalf("access %d: clock %d did not wrap", i, c.clock)
					}
					wraps++
				}
			})
			if wraps != 3 {
				t.Fatalf("%d wraps checked, want 3", wraps)
			}
		})
	}
}

// TestCacheTagRange: an address whose 32-bit tag would collide with the
// empty-way sentinel panics instead of aliasing; the last address below
// it is cached normally.
func TestCacheTagRange(t *testing.T) {
	c := NewCache(64, 1, 64) // one set: the tag is the whole line number
	last := uint64(emptyTag-1) << 6
	if c.Access(last) || !c.Access(last) {
		t.Fatal("highest taggable line not cached")
	}
	defer func() {
		if recover() == nil {
			t.Error("address beyond the tag range accepted")
		}
	}()
	c.Access(uint64(emptyTag) << 6)
}

var sinkHit bool

// BenchmarkCacheAccess measures one lookup on the simulator's L1 and L2
// shapes under a random stream (mostly misses over a footprint 4x the
// cache) and a strided one (mostly hits). Streams are precomputed so the
// loop times Access alone.
func BenchmarkCacheAccess(b *testing.B) {
	for _, sh := range []cacheShape{cacheShapes[0], cacheShapes[2]} {
		for _, name := range []string{"random", "strided"} {
			b.Run(sh.name+"/"+name, func(b *testing.B) {
				rng := stats.NewRNG(7)
				addrs := make([]uint64, 1<<16)
				ws := uint64(sh.size) * 4
				for i := range addrs {
					addrs[i] = addrStreams[name](rng, i, ws)
				}
				c := NewCache(sh.size, sh.ways, sh.lineBytes)
				for _, a := range addrs {
					c.Access(a)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var hit bool
				for i := 0; i < b.N; i++ {
					hit = c.Access(addrs[i&(len(addrs)-1)])
				}
				sinkHit = hit
			})
		}
	}
}
