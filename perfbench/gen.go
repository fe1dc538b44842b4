package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"
)

// splitmix64 is a stateless mixer: it turns (seed, index) pairs into
// independent-looking 64-bit values, so any request's inputs can be derived
// from its index alone, in any order and from any goroutine.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive returns a seed for one purpose (stream) and item of a run's seed.
func derive(seed int64, stream, item uint64) int64 {
	return int64(splitmix64(uint64(seed) ^ splitmix64(stream<<32^item)))
}

// Seed streams, one per generated input family.
const (
	streamShape uint64 = iota + 1
	streamMissPick
	streamZipf
	streamSchedule
)

// traceEvent is one line of a generated trace, with an object id local to
// its shape.
type traceEvent struct {
	kind byte
	id   int
	arg  int // size for 'a', offset for 'r'/'w'
}

// shape is one request's trace up to renaming of object ids. Rendering a
// shape with different id bases gives canonically distinct traces whose
// replay bodies are byte-identical (ids never reach the response), which is
// what lets set-up replay each shape once and still check every body.
type shape struct {
	events []traceEvent
}

// A shape is built to the request of pgbench -servebench (serveBenchTrace
// in cmd/pgbench/servebench.go): shapeObjects objects, the i-th (from 1) of
// 48 KiB + (i mod 7) × 16 KiB, each allocated, written, read and freed at
// once, with a dangling read of every danglingEvery-th object after its free
// (each response carries forensic trap reports, so the byte check covers
// them). The seed picks only the order the sizes come in and the offsets
// the writes and reads touch: every request of a mix maps the same pages
// and detects the same number of errors, so a seed changes which traces are
// sent, not how much work they are.
const (
	shapeObjects  = 160
	danglingEvery = 80
)

// genShape builds shape k of a run.
func genShape(seed int64, k int) shape {
	rng := rand.New(rand.NewSource(derive(seed, streamShape, uint64(k))))
	sizes := make([]int, shapeObjects)
	for i := range sizes {
		sizes[i] = 49152 + ((i+1)%7)*16384
	}
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	offset := func(size int) int { return 8 * rng.Intn(size/8) }
	var s shape
	for id, size := range sizes {
		s.events = append(s.events,
			traceEvent{'a', id, size},
			traceEvent{'w', id, offset(size)},
			traceEvent{'r', id, offset(size)},
			traceEvent{'f', id, 0})
		if (id+1)%danglingEvery == 0 {
			s.events = append(s.events, traceEvent{'r', id, offset(size)})
		}
	}
	return s
}

// render writes s as trace text with every object id offset by base.
func (s shape) render(base uint64) []byte {
	var b bytes.Buffer
	b.Grow(32 * len(s.events))
	b.WriteString("# perfbench request\n")
	for _, e := range s.events {
		id := base + uint64(e.id)
		switch e.kind {
		case 'a':
			fmt.Fprintf(&b, "a %d %d\n", id, e.arg)
		case 'f':
			fmt.Fprintf(&b, "f %d\n", id)
		default:
			fmt.Fprintf(&b, "%c %d %d\n", e.kind, id, e.arg)
		}
	}
	return b.Bytes()
}

// idSpan is the id range one request's objects occupy; request bases are
// multiples of it, so no two requests share an object id.
const idSpan = 1000

// missShapes is how many shapes the serve-miss mix draws from.
const missShapes = 32

// missRequest returns request idx of the serve-miss mix: which shape it
// renders and its id base. Every index gets its own id range, so no two
// requests of a run are the same canonical trace and none can hit a cache.
func missRequest(seed int64, idx int) (shapeIdx int, base uint64) {
	pick := uint64(derive(seed, streamMissPick, uint64(idx)))
	return int(pick % missShapes), uint64(idx+1) * idSpan
}

// hotVariants is the number of distinct traces in the serve-hot mix.
const hotVariants = 32

// zipfS is the serve-hot mix's Zipf skew exponent.
const zipfS = 1.2

// poissonSchedule returns the due offsets of n open-loop arrivals at rate
// per second: exponential gaps from a generator seeded by seed.
func poissonSchedule(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(derive(seed, streamSchedule, 0)))
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}
