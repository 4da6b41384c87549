package main

import (
	"testing"
	"time"
)

func TestUnionNs(t *testing.T) {
	for _, tc := range []struct {
		iv     []interval
		lo, hi int64
		want   int64
	}{
		{nil, 0, 100, 0},
		{[]interval{{10, 20}, {30, 40}}, 0, 100, 20},
		{[]interval{{30, 40}, {10, 35}}, 0, 100, 30},           // unsorted, overlapping
		{[]interval{{10, 20}, {12, 18}, {20, 25}}, 0, 100, 15}, // nested, touching
		{[]interval{{-5, 15}, {90, 120}}, 0, 100, 25},          // clipped to the window
		{[]interval{{50, 50}, {60, 55}}, 0, 100, 0},            // empty and inverted
	} {
		if got := unionNs(tc.iv, tc.lo, tc.hi); got != tc.want {
			t.Errorf("unionNs(%v, %d, %d) = %d, want %d", tc.iv, tc.lo, tc.hi, got, tc.want)
		}
	}
}

// TestTracerSelfTime builds a parent with two real children and a burst of
// hot calls that overlaps one child, then checks nesting and that self time
// is the parent's duration minus the union of everything under it.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.Begin("root", -1, 7)
	spin(time.Millisecond)
	a := tr.Begin("a", root, 7)
	spin(2 * time.Millisecond)
	tr.End(a)
	b := tr.Begin("b", root, 7)
	h0 := tr.Now()
	spin(time.Millisecond)
	h1 := tr.Now()
	tr.End(b)
	spin(time.Millisecond)
	h2 := tr.Now()
	spin(time.Millisecond)
	h3 := tr.Now()
	// One hot call inside b (already covered), one outside any child.
	tr.EndWith(root, []interval{{h0, h1}, {h2, h3}})

	spans := tr.Spans()
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	r, sa, sb := spans[root], spans[a], spans[b]
	want := (r.End - r.Start) - (sa.End - sa.Start) - (sb.End - sb.Start) - (h3 - h2)
	if r.Self != want {
		t.Errorf("root self = %d, want %d", r.Self, want)
	}
	if sa.Self != sa.End-sa.Start || sb.Self != sb.End-sb.Start {
		t.Errorf("leaf self times %d, %d differ from their durations", sa.Self, sb.Self)
	}
	for _, s := range spans {
		if s.Self < 0 {
			t.Errorf("span %s has negative self time %d", s.Name, s.Self)
		}
		if s.Op != 7 {
			t.Errorf("span %s has op %d, want 7", s.Name, s.Op)
		}
	}
}

func TestCheckNestingRejects(t *testing.T) {
	outside := []Span{
		{ID: 0, Parent: -1, Name: "p", Start: 10, End: 20},
		{ID: 1, Parent: 0, Name: "c", Start: 15, End: 25},
	}
	if checkNesting(outside) == nil {
		t.Error("a child ending after its parent passed the nesting check")
	}
	negative := []Span{{ID: 0, Parent: -1, Name: "p", Start: 10, End: 20, Self: -1}}
	if checkNesting(negative) == nil {
		t.Error("a negative self time passed the nesting check")
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, label := tail(xs); v != quantile(xs, 0.9) || label != "p90.0 of 100 samples" {
		t.Errorf("tail of 100 = %v %q", v, label)
	}
	if v, label := tail(xs[:12]); v != quantile(xs[:12], 0.5) || label != "p50.0 of 12 samples" {
		t.Errorf("tail of 12 = %v %q, want the median", v, label)
	}
}

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}
