package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside the program.
// Spans of one statement share Stmt; a statement's root span (the client's
// round trip) has Parent 0 and every other span of that statement names the
// root as its Parent. Background work (checkpoints, setup, recovery) has
// Stmt 0.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Stmt   int64  `json:"stmt,omitempty"`
	Name   string `json:"name"`
	Note   string `json:"note,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps a run's spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced runs use the same code paths.
type recorder struct {
	start time.Time
	// on gates the spans recorded on the statement path (WAL and stream):
	// the ingest writer traces every other statement, so traced and
	// untraced statements interleave and their latencies give the tracing
	// overhead without drift between them.
	on atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{start: time.Now()}
	r.on.Store(true)
	return r
}

// add records s and returns its id.
func (r *recorder) add(s span) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = int64(len(r.spans)) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// timed records a span from t0 to now.
func (r *recorder) timed(name, note string, stmt int64, t0 time.Time, bytes int64) {
	if r == nil {
		return
	}
	r.add(span{Stmt: stmt, Name: name, Note: note, Start: r.ns(t0), End: r.ns(time.Now()), Bytes: bytes})
}

func (r *recorder) ns(t time.Time) int64 { return t.Sub(r.start).Nanoseconds() }

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// named returns the spans called name.
func named(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// attribute gives each unowned span among children to the root whose
// interval contains it. Roots must not overlap (one writer connection), so
// the containing root is found by binary search on start time.
func (r *recorder) attribute(rootName string, children map[string]bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var roots []int
	for i, s := range r.spans {
		if s.Name == rootName {
			roots = append(roots, i)
		}
	}
	sort.Slice(roots, func(a, b int) bool { return r.spans[roots[a]].Start < r.spans[roots[b]].Start })
	for i := range r.spans {
		c := &r.spans[i]
		if c.Stmt != 0 || !children[c.Name] {
			continue
		}
		j := sort.Search(len(roots), func(j int) bool { return r.spans[roots[j]].Start > c.Start }) - 1
		if j < 0 {
			continue
		}
		root := r.spans[roots[j]]
		if c.End <= root.End {
			c.Stmt, c.Parent = root.Stmt, root.ID
		}
	}
}

// selfTimes returns, per root span called rootName, the root's duration
// minus the part of it covered by its children.
func selfTimes(spans []span, rootName string) []float64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name != rootName {
			continue
		}
		out = append(out, float64(s.dur()-covered(kids[s.ID], s.Start, s.End)))
	}
	return out
}

// covered is the length of the union of the spans' intervals, clipped to
// [lo, hi].
func covered(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end int64 = 0, lo
	for _, s := range spans {
		a, b := max(s.Start, end), min(s.End, hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// write saves the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
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
