package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around the
// exported function it calls. Times are nanoseconds since the tracer epoch.
// Op identifies the trial, live run or request the span belongs to.
type Span struct {
	ID, Parent int // Parent is -1 for a root span
	Name       string
	Op         int64
	Start, End int64
	// Self is End-Start minus the union of the intervals of the span's
	// children and of the hot calls folded into it at End.
	Self int64
}

// interval is a half-open [start, end) stretch of time in tracer nanoseconds.
type interval struct{ start, end int64 }

// Tracer keeps spans in memory and writes them out once, at exit. Calls that
// happen hundreds of thousands of times per trial (agent handlers, serial
// socket deliveries) are not spans: their intervals are passed to EndWith so
// that the enclosing span's self time excludes them, and their counts and
// durations are tallied by the caller.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
	kids  [][]int32
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Now is the tracer clock.
func (t *Tracer) Now() int64 { return int64(time.Since(t.epoch)) }

// Begin opens a span under parent (-1 for a root) and returns its ID.
func (t *Tracer) Begin(name string, parent int, op int64) int {
	start := t.Now()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Op: op, Start: start})
	t.kids = append(t.kids, nil)
	if parent >= 0 {
		t.kids[parent] = append(t.kids[parent], int32(id))
	}
	t.mu.Unlock()
	return id
}

// End closes span id.
func (t *Tracer) End(id int) int64 { return t.EndWith(id, nil) }

// EndWith closes span id, computes its self time from its closed children
// and the given hot-call intervals (which it reorders), and returns the
// span's duration. Every child must have ended before its parent.
func (t *Tracer) EndWith(id int, hot []interval) int64 {
	end := t.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = end
	for _, k := range t.kids[id] {
		c := t.spans[k]
		hot = append(hot, interval{c.Start, c.End})
	}
	s.Self = (s.End - s.Start) - unionNs(hot, s.Start, s.End)
	t.kids[id] = nil
	return s.End - s.Start
}

// Spans returns the recorded spans; call only once every span has ended.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// unionNs is the length of the union of iv clipped to [lo, hi). It sorts iv
// in place.
func unionNs(iv []interval, lo, hi int64) int64 {
	if !sort.SliceIsSorted(iv, func(i, j int) bool { return iv[i].start < iv[j].start }) {
		sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	}
	var total int64
	curS, curE := int64(0), int64(-1)
	for _, v := range iv {
		s, e := max64(v.start, lo), min64(v.end, hi)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// checkNesting reports the first span that is open, inverted, or not inside
// its parent, and the first negative self time.
func checkNesting(spans []Span) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Self < 0 {
			return fmt.Errorf("span %d %s has negative self time %d", s.ID, s.Name, s.Self)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("span %d %s [%d,%d] is outside its parent %d %s [%d,%d]",
					s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
			}
		}
	}
	return nil
}

// selfByName sums the self time of every span with the given name.
func selfByName(spans []Span, name string) (total int64) {
	for _, s := range spans {
		if s.Name == name {
			total += s.Self
		}
	}
	return total
}

// writeSpans writes spans as tab-separated lines to path.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\top\tstart_ns\tend_ns\tself_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\n", s.ID, s.Parent, s.Name, s.Op, s.Start, s.End, s.Self)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
