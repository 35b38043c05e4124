package server

import (
	"encoding/json"
	"net/http"
	"sort"
	"time"

	"sgb/internal/obs"
	"sgb/internal/stream"
)

// procEntry is one in-flight query tracked for the process list. The live
// *obs.Trace carries the query's current execution state (parsing, executing,
// committing, streaming), so the process list reads phase transitions without
// any extra bookkeeping on the hot path.
type procEntry struct {
	tr     *obs.Trace
	client string
	sql    string
	start  time.Time
}

// trackQuery registers an in-flight query; the caller must untrackQuery it.
func (s *Server) trackQuery(e *procEntry) {
	s.procMu.Lock()
	s.procs[e] = struct{}{}
	s.procMu.Unlock()
}

func (s *Server) untrackQuery(e *procEntry) {
	s.procMu.Lock()
	delete(s.procs, e)
	s.procMu.Unlock()
}

// ProcessList snapshots the in-flight queries, oldest first — the data
// behind \processlist, the Introspect wire message, and /debug/queries.
func (s *Server) ProcessList() []obs.QueryInfo {
	s.procMu.Lock()
	entries := make([]*procEntry, 0, len(s.procs))
	for e := range s.procs {
		entries = append(entries, e)
	}
	s.procMu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].start.Before(entries[j].start) })
	out := make([]obs.QueryInfo, 0, len(entries))
	for _, e := range entries {
		out = append(out, obs.QueryInfo{
			TraceID:   e.tr.ID(),
			Client:    e.client,
			SQL:       e.sql,
			State:     e.tr.State(),
			ElapsedMS: float64(time.Since(e.start).Nanoseconds()) / 1e6,
			StartedAt: e.start.UTC().Format(time.RFC3339Nano),
		})
	}
	return out
}

// SlowLog exposes the server's slow-query ring buffer.
func (s *Server) SlowLog() *obs.SlowLog { return s.slowlog }

// recordFinished folds a completed statement into the slowlog when it
// cleared the configured threshold (0 logs everything; New maps a negative,
// disabled threshold past any elapsed time). It runs before the statement's
// terminal frame, so below the threshold it costs one comparison.
func (c *conn) recordFinished(e *procEntry, elapsed time.Duration, rows int64, err error) {
	s := c.srv
	if elapsed < s.cfg.SlowQueryThreshold {
		return
	}
	q := obs.SlowQuery{
		TraceID:   e.tr.ID(),
		Client:    e.client,
		SQL:       e.sql,
		Settings:  c.sess.Settings().String(),
		ElapsedMS: float64(elapsed.Nanoseconds()) / 1e6,
		Rows:      rows,
		Trace:     e.tr.Snapshot(),
	}
	if err != nil {
		q.Err = err.Error()
	}
	s.slowlog.Add(q)
	s.db.Metrics().Counter("server_slow_queries_total").Inc()
}

// RegisterDebug installs the JSON introspection endpoints on mux, alongside
// /metrics on the daemon's metrics listener:
//
//	/debug/queries — the live process list ([]obs.QueryInfo)
//	/debug/slowlog — the slow-query ring buffer, newest first ([]obs.SlowQuery)
//	/debug/views   — materialized view status: state sizes, delta rate,
//	                 staleness, subscriber counts ([]stream.ViewStatus)
func (s *Server) RegisterDebug(mux *http.ServeMux) {
	mux.HandleFunc("/debug/queries", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.ProcessList())
	})
	mux.HandleFunc("/debug/slowlog", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.slowlog.Entries())
	})
	mux.HandleFunc("/debug/views", func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.Streams == nil {
			writeJSON(w, []stream.ViewStatus{})
			return
		}
		writeJSON(w, s.cfg.Streams.Views())
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
