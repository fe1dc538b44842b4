package main

import (
	"bytes"
	"crypto/sha256"
	"reflect"
	"sort"
	"testing"

	"repro/trace"
)

// canonical is the trace's canonical rendering, the form a content-hash
// replay cache keys on.
func canonical(t *testing.T, text []byte) [sha256.Size]byte {
	t.Helper()
	f, err := trace.ParseFile(bytes.NewReader(text))
	if err != nil {
		t.Fatalf("generated trace does not parse: %v", err)
	}
	var b bytes.Buffer
	if err := f.Format(&b); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(b.Bytes())
}

// hotDraws returns the variants n requests of one serve-hot client stream
// ask for.
func hotDraws(seed int64, stream, n int) []int {
	in := &serveInputs{mix: hotMix, seed: seed,
		hot: make([][]byte, hotVariants), bodies: make([][]byte, hotVariants)}
	next := in.stream(stream)
	out := make([]int, n)
	for i := range out {
		out[i] = next().rid
	}
	return out
}

func TestZipfMixIsReproduciblePerSeed(t *testing.T) {
	a, b := hotDraws(7, 1, 5000), hotDraws(7, 1, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and stream gave different draws")
	}
	if reflect.DeepEqual(a, hotDraws(8, 1, 5000)) || reflect.DeepEqual(a, hotDraws(7, 2, 5000)) {
		t.Fatal("another seed or stream gave the same draws")
	}
	counts := make([]int, hotVariants)
	for _, v := range a {
		if v < 0 || v >= hotVariants {
			t.Fatalf("draw %d outside [0,%d)", v, hotVariants)
		}
		counts[v]++
	}
	// Zipf(1.2): the head variant dominates and the tail is still reached.
	if counts[0] < counts[1] || counts[1] < counts[hotVariants-1] || counts[hotVariants-1] == 0 || counts[0] < len(a)/4 {
		t.Errorf("draws are not Zipf-skewed: %v", counts)
	}
}

func TestMissMixHasNoRepeatedCanonicalTrace(t *testing.T) {
	in := &serveInputs{mix: missMix, seed: 3}
	for k := 0; k < missShapes; k++ {
		in.shapes = append(in.shapes, genShape(in.seed, k))
		in.bodies = append(in.bodies, nil)
	}
	seen := map[[sha256.Size]byte]int{}
	next := in.stream(0)
	for i := 0; i < 3000; i++ {
		q := next()
		h := canonical(t, q.body)
		if j, dup := seen[h]; dup {
			t.Fatalf("requests %d and %d are the same canonical trace", j, q.rid)
		}
		seen[h] = q.rid
	}
}

// A shape has servebench's parameters: 160 objects whose sizes are the
// multiset 48 KiB + (i mod 7) × 16 KiB for i = 1..160, each freed right
// after its write and read, and a dangling read after every 80th free.
func TestShapeFollowsServebench(t *testing.T) {
	var want []int
	for i := 1; i <= 160; i++ {
		want = append(want, 49152+(i%7)*16384)
	}
	sort.Ints(want)
	for k := 0; k < 4; k++ {
		var sizes []int
		dangling, live := 0, map[int]bool{}
		for _, e := range genShape(21, k).events {
			switch e.kind {
			case 'a':
				sizes = append(sizes, e.arg)
				if len(live) != 0 {
					t.Fatalf("shape %d: object %d allocated while %v are live", k, e.id, live)
				}
				live[e.id] = true
			case 'f':
				delete(live, e.id)
			case 'r':
				if !live[e.id] {
					dangling++
				}
			}
		}
		sort.Ints(sizes)
		if !reflect.DeepEqual(sizes, want) {
			t.Errorf("shape %d: sizes are not servebench's", k)
		}
		if dangling != 160/80 {
			t.Errorf("shape %d: %d dangling reads, want %d", k, dangling, 160/80)
		}
	}
}

func TestGeneratorsAreReproducible(t *testing.T) {
	if !bytes.Equal(genShape(5, 3).render(1000), genShape(5, 3).render(1000)) {
		t.Error("same seed gave different shapes")
	}
	if bytes.Equal(genShape(5, 3).render(1000), genShape(6, 3).render(1000)) {
		t.Error("another seed gave the same shape")
	}
	a, b := poissonSchedule(9, 100, 500), poissonSchedule(9, 100, 500)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different schedules")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule goes backwards at %d", i)
		}
	}
	// 500 arrivals at 100/s take about 5 s.
	if a[len(a)-1].Seconds() < 4 || a[len(a)-1].Seconds() > 6 {
		t.Errorf("500 arrivals at 100/s end at %v", a[len(a)-1])
	}
}

// Renaming object ids must not change a replay's body: the serve-miss
// checks rely on it to verify every distinct request from one offline
// replay per shape.
func TestReplayBodyIgnoresObjectIDs(t *testing.T) {
	sh := genShape(11, 0)
	a, err := offlineBody(sh.render(idSpan))
	if err != nil {
		t.Fatal(err)
	}
	b, err := offlineBody(sh.render(987654 * idSpan))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("renaming object ids changed the body")
	}
	if !bytes.Contains(a, []byte(`"type":"detection"`)) {
		t.Error("shape has no dangling read: the body check would not cover a trap report")
	}
}
