package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Parent is the enclosing span's ID (-1 for a
// root); spans of one replayed function share Group.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Group  int           `json:"group"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory. A disabled recorder records nothing
// and reads no clock, so the same replay code runs traced and untraced
// and the difference between the two is the tracing overhead.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

// begin opens a span and returns its ID (-1 when disabled).
func (r *recorder) begin(name string, parent, group int) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Group: group, Name: name, Start: time.Since(r.t0)})
	return len(r.spans) - 1
}

// end closes the span opened by begin.
func (r *recorder) end(id int) {
	if id >= 0 {
		r.spans[id].End = time.Since(r.t0)
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children are
// counted once, and a child running past its parent is clipped to it.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// byName sums self time per span name and counts the spans.
func byName(spans []span) (self map[string]time.Duration, count map[string]int) {
	st := selfTimes(spans)
	self, count = map[string]time.Duration{}, map[string]int{}
	for i, s := range spans {
		self[s.Name] += st[i]
		count[s.Name]++
	}
	return self, count
}

// writeSpans writes one JSON object per span, with its self time.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	st := selfTimes(spans)
	for i, s := range spans {
		rec := struct {
			span
			SelfNS time.Duration `json:"self_ns"`
		}{s, st[i]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
