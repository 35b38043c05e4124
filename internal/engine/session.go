package engine

import (
	"context"

	"sgb/internal/obs"
)

// Session is a per-client view of a shared DB: it carries its own Settings
// while executing against the DB's catalog and statement lock. Sessions are
// cheap; the network server creates one per connection. A Session is safe for
// concurrent use, though the server executes at most one statement per
// session at a time.
//
// Settings start as a snapshot of the DB-level defaults at creation time and
// evolve independently afterwards: SetParallelism on one session never
// affects another session or the DB defaults.
type Session struct {
	db *DB
	settingsVar
}

// NewSession creates a session over db whose settings are initialized from
// the DB-level defaults.
func (db *DB) NewSession() *Session {
	s := &Session{db: db}
	s.set = db.Settings()
	return s
}

// DB returns the shared database this session executes against.
func (s *Session) DB() *DB { return s.db }

// Exec parses and executes one SQL statement under the session's settings.
func (s *Session) Exec(sql string) (*Result, error) {
	return s.ExecContext(context.Background(), sql)
}

// ExecContext parses and executes one SQL statement under the session's
// settings, with DB.ExecContext's cancellation semantics.
func (s *Session) ExecContext(ctx context.Context, sql string) (*Result, error) {
	return s.db.execSQL(ctx, sql, s.Settings())
}

// ExecContextTrace is ExecContext recording onto a caller-provided trace.
// The network server passes the trace carrying the query's propagated trace
// ID here, so engine spans (parse/plan/execute) and commit-hook spans (WAL
// append/fsync) join the server's wire-level spans on one trace. tr must not
// be nil.
func (s *Session) ExecContextTrace(ctx context.Context, sql string, tr *obs.Trace) (*Result, error) {
	return s.db.execSQLTrace(ctx, sql, s.Settings(), tr)
}

// ExecStmtContext executes an already parsed statement under the session's
// settings.
func (s *Session) ExecStmtContext(ctx context.Context, stmt Statement) (*Result, error) {
	return s.db.execTraced(ctx, stmt, obs.NewTrace(), s.Settings(), "")
}
