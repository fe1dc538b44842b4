package main

import "testing"

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past root
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	// root: covered [10,50) and [90,100) = 50.
	want := map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
}

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *recorder
	if id := r.begin("x", 0, 1); id != 0 {
		t.Fatalf("nil recorder returned span id %d", id)
	}
	if d := r.end(0); d != 0 {
		t.Fatalf("nil recorder measured %v", d)
	}
	if r.closed() != nil {
		t.Fatal("nil recorder has spans")
	}
}

func TestRecorderKeepsParentAndRequest(t *testing.T) {
	r := newRecorder()
	root := r.begin("root", 0, -1)
	child := r.begin("child", root, 7)
	r.end(child)
	r.begin("open", root, 8) // never ended
	r.end(root)
	got := r.closed()
	if len(got) != 2 {
		t.Fatalf("closed spans = %d, want 2 (the open one is left out)", len(got))
	}
	if got[1].Name != "child" || got[1].Parent != root || got[1].RID != 7 || got[1].End < got[1].Start {
		t.Errorf("child span = %+v", got[1])
	}
}
