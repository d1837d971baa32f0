package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 2, Parent: 0, Name: "b", Start: 20 * ms, End: 50 * ms},  // overlaps a: counted once
		{ID: 3, Parent: 0, Name: "c", Start: 90 * ms, End: 120 * ms}, // runs past root: clipped
		{ID: 4, Parent: 1, Name: "a.inner", Start: 12 * ms, End: 18 * ms},
	}
	st := selfTimes(spans)
	want := []time.Duration{50 * ms, 14 * ms, 30 * ms, 30 * ms, 6 * ms}
	for i := range want {
		if st[i] != want[i] {
			t.Errorf("span %s: self %v, want %v", spans[i].Name, st[i], want[i])
		}
	}
	self, count := byName(append(spans, span{ID: 5, Parent: -1, Name: "a", Start: 0, End: 5 * ms}))
	if self["a"] != 19*ms || count["a"] != 2 {
		t.Errorf("byName(a) = %v over %d spans, want 19ms over 2", self["a"], count["a"])
	}
}

func TestRecorderNestsAndDisabledRecordsNothing(t *testing.T) {
	r := newRecorder(true)
	root := r.begin("root", -1, 0)
	kid := r.begin("kid", root, 0)
	time.Sleep(2 * time.Millisecond)
	r.end(kid)
	r.end(root)
	if len(r.spans) != 2 || r.spans[1].Parent != root {
		t.Fatalf("spans = %+v", r.spans)
	}
	st := selfTimes(r.spans)
	if st[1] < 2*time.Millisecond || st[0] < 0 || st[0] >= r.spans[0].dur() {
		t.Fatalf("self times %v for spans %+v", st, r.spans)
	}

	off := newRecorder(false)
	id := off.begin("x", -1, 0)
	off.end(id)
	if id != -1 || len(off.spans) != 0 {
		t.Fatalf("disabled recorder recorded %+v", off.spans)
	}
}
