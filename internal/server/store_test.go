package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sgb/internal/engine"
	"sgb/internal/wal"
)

// mustExec runs one statement or fails the test.
func mustExec(t *testing.T, db *engine.DB, sql string) {
	t.Helper()
	if _, err := db.Exec(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// countRows reads count(*) from t.
func countRows(t *testing.T, db *engine.DB, table string) int64 {
	t.Helper()
	res, err := db.Query("SELECT count(*) FROM " + table)
	if err != nil {
		t.Fatalf("count(%s): %v", table, err)
	}
	return res.Rows[0][0].I
}

// TestStoreRecoversFromWALOnly simulates a crash: the first store is simply
// abandoned (no Close, so no final checkpoint), and a second store on the
// same directory must rebuild every acknowledged statement from the log.
func TestStoreRecoversFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s1.DB(), "CREATE TABLE pts (id INT, x FLOAT, y FLOAT)")
	for i := 0; i < 10; i++ {
		mustExec(t, s1.DB(), fmt.Sprintf("INSERT INTO pts VALUES (%d, %d.5, %d.5)", i, i, i))
	}
	mustExec(t, s1.DB(), "DELETE FROM pts WHERE id = 0")
	mustExec(t, s1.DB(), "UPDATE pts SET x = 100.0 WHERE id = 1")
	// Crash: no Close, no checkpoint.

	s2, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.ReplayedRecords(); got != 13 {
		t.Errorf("replayed %d records, want 13", got)
	}
	if n := countRows(t, s2.DB(), "pts"); n != 9 {
		t.Errorf("recovered %d rows, want 9", n)
	}
	res, err := s2.DB().Query("SELECT x FROM pts WHERE id = 1")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].F != 100.0 {
		t.Errorf("UPDATE not replayed: %+v err=%v", res, err)
	}
	if got := s2.DB().Metrics().Counter("wal_replayed_records_total").Value(); got != 13 {
		t.Errorf("wal_replayed_records_total = %d", got)
	}
}

// TestStoreCheckpointBoundsReplay: after a checkpoint, recovery replays only
// the records past it, and covered segments are trimmed.
func TestStoreCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s1.DB(), "CREATE TABLE t (x INT)")
	for i := 0; i < 5; i++ {
		mustExec(t, s1.DB(), fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}
	if err := s1.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointFile)); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}
	// Two more statements after the checkpoint, then crash.
	mustExec(t, s1.DB(), "INSERT INTO t VALUES (100)")
	mustExec(t, s1.DB(), "INSERT INTO t VALUES (101)")

	s2, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.ReplayedRecords(); got != 2 {
		t.Errorf("replayed %d records, want 2 (checkpoint covers the rest)", got)
	}
	if n := countRows(t, s2.DB(), "t"); n != 7 {
		t.Errorf("recovered %d rows, want 7", n)
	}
	if got := s2.DB().Metrics().Counter("checkpoints_total").Value(); got != 0 {
		t.Errorf("fresh store inherited checkpoint count %d", got)
	}
}

// TestStoreRejectsCorruptCheckpoint pins the boot-time error path: a
// truncated or garbage checkpoint file must fail OpenStore loudly, naming
// the checkpoint, rather than recover an empty or partial database.
func TestStoreRejectsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s1.DB(), "CREATE TABLE t (n INT)")
	mustExec(t, s1.DB(), "INSERT INTO t VALUES (1), (2), (3)")
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"truncated": raw[:len(raw)/2],
		"garbage":   []byte("this is not a checkpoint at all"),
	} {
		t.Run(name, func(t *testing.T) {
			bad := t.TempDir()
			if err := os.WriteFile(filepath.Join(bad, checkpointFile), body, 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := OpenStore(StoreOptions{Dir: bad})
			if err == nil {
				st.Close()
				t.Fatal("corrupt checkpoint recovered without error")
			}
			if !strings.Contains(err.Error(), "checkpoint") {
				t.Errorf("error does not identify the checkpoint: %v", err)
			}
		})
	}
}

// TestStoreGracefulClose: Close writes a final checkpoint, so a clean
// restart replays nothing.
func TestStoreGracefulClose(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s1.DB(), "CREATE TABLE t (x INT)")
	mustExec(t, s1.DB(), "INSERT INTO t VALUES (1), (2), (3)")
	if err := s1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := s1.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	s2, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.ReplayedRecords(); got != 0 {
		t.Errorf("replayed %d records after graceful close, want 0", got)
	}
	if n := countRows(t, s2.DB(), "t"); n != 3 {
		t.Errorf("recovered %d rows, want 3", n)
	}
}

// TestStoreSeqContinuesAfterGracefulRestart pins the regression where a
// graceful close (checkpoint + trimmed, empty log) made the next generation
// restart WAL numbering at 1: its acknowledged writes then carried seqs at
// or below the checkpoint's covered seq, and a later recovery skipped them
// as already covered — open → write → close → open → write → crash → open
// lost the second-generation write.
func TestStoreSeqContinuesAfterGracefulRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s1.DB(), "CREATE TABLE t (x INT)")
	mustExec(t, s1.DB(), "INSERT INTO t VALUES (1)")
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s2.DB(), "INSERT INTO t VALUES (2)")
	// Crash: abandon s2 without Close — no final checkpoint.

	s3, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.ReplayedRecords(); got != 1 {
		t.Errorf("replayed %d records, want 1 (the post-restart insert)", got)
	}
	if n := countRows(t, s3.DB(), "t"); n != 2 {
		t.Errorf("recovered %d rows, want 2 — second-generation write lost", n)
	}
}

// TestStoreCloseFencesLateWrites: once Close has run, a mutating statement
// must fail with ErrStoreClosed rather than be acknowledged with neither a
// WAL record nor checkpoint coverage; reads keep working.
func TestStoreCloseFencesLateWrites(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s.DB(), "CREATE TABLE t (x INT)")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = s.DB().Exec("INSERT INTO t VALUES (1)")
	var de *engine.DurabilityError
	if !errors.As(err, &de) || !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("write after close: %v, want DurabilityError wrapping ErrStoreClosed", err)
	}
	if _, err := s.DB().Query("SELECT count(*) FROM t"); err != nil {
		t.Fatalf("read after close: %v", err)
	}
	// The fenced write was never acknowledged, so recovery must not show it.
	s2, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := countRows(t, s2.DB(), "t"); n != 0 {
		t.Errorf("recovered %d rows, want 0 — unlogged write resurfaced", n)
	}
}

// TestStoreTornTailRecovery tears the final WAL record (as a mid-append
// crash would) and verifies recovery truncates it: every earlier statement
// survives, the torn one vanishes, and the store keeps serving writes.
func TestStoreTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s1.DB(), "CREATE TABLE t (x INT)")
	for i := 0; i < 5; i++ {
		mustExec(t, s1.DB(), fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}
	// Crash, then tear the last record in the active segment.
	seg := filepath.Join(dir, "wal-0000000000000001.log")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-4); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.ReplayedRecords(); got != 5 {
		t.Errorf("replayed %d records, want 5 (6 minus the torn tail)", got)
	}
	if n := countRows(t, s2.DB(), "t"); n != 4 {
		t.Errorf("recovered %d rows, want 4", n)
	}
	if got := s2.DB().Metrics().Counter("wal_truncations_total").Value(); got != 1 {
		t.Errorf("wal_truncations_total = %d", got)
	}
	// The store must accept and persist new writes after the repair.
	mustExec(t, s2.DB(), "INSERT INTO t VALUES (99)")
	s2.Close()

	s3, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if n := countRows(t, s3.DB(), "t"); n != 5 {
		t.Errorf("after repair + write: %d rows, want 5", n)
	}
}

// TestStoreFaultInjection drives the store through an injected disk failure:
// the failing statement surfaces a typed DurabilityError (never
// acknowledged), later writes fail fast, and recovery yields exactly the
// acknowledged prefix.
func TestStoreFaultInjection(t *testing.T) {
	dir := t.TempDir()
	ffs := wal.NewFaultFS(wal.OS)
	// A long probe interval keeps the degraded state latched for the whole
	// test: this test asserts the fail-fast behavior, not the auto-promotion
	// (TestStoreDegradedPromotes covers that).
	s1, err := OpenStore(StoreOptions{Dir: dir, FS: ffs, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s1.DB(), "CREATE TABLE t (x INT)")
	acked := 0
	for i := 0; i < 3; i++ {
		mustExec(t, s1.DB(), fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
		acked++
	}
	// The next WAL write tears half-way through.
	ffs.FailWriteAt(1, true)
	_, err = s1.DB().Exec("INSERT INTO t VALUES (1000)")
	var de *engine.DurabilityError
	if !errors.As(err, &de) || !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("injected failure surfaced as %v, want DurabilityError wrapping ErrInjected", err)
	}
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("injected failure surfaced as %v, want ErrDegraded in the chain", err)
	}
	// The store is degraded: subsequent writes fail fast without touching disk.
	_, err = s1.DB().Exec("INSERT INTO t VALUES (1001)")
	if !errors.As(err, &de) || !errors.Is(err, ErrDegraded) {
		t.Fatalf("post-failure write surfaced as %v, want DurabilityError wrapping ErrDegraded", err)
	}
	// Reads still work on the in-process state.
	if _, err := s1.DB().Query("SELECT count(*) FROM t"); err != nil {
		t.Fatalf("read after wal failure: %v", err)
	}

	// Recovery (healthy disk) sees exactly the acknowledged statements; the
	// torn record from the injected short write is truncated away.
	s2, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := countRows(t, s2.DB(), "t"); n != int64(acked) {
		t.Errorf("recovered %d rows, want %d acknowledged", n, acked)
	}
}

// TestStoreBackgroundCheckpointer: a short interval produces checkpoints
// without any manual call.
func TestStoreBackgroundCheckpointer(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(StoreOptions{Dir: dir, CheckpointInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s.DB(), "CREATE TABLE t (x INT)")
	mustExec(t, s.DB(), "INSERT INTO t VALUES (1)")
	deadline := time.Now().Add(5 * time.Second)
	for s.DB().Metrics().Counter("checkpoints_total").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background checkpointer never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Close()
	if _, err := os.Stat(filepath.Join(dir, checkpointFile)); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}
}

// TestStoreLogsOnlyWrites: SELECT/EXPLAIN and view DDL produce no WAL
// records (views are session-scoped and not persisted, matching snapshots).
func TestStoreLogsOnlyWrites(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	db := s.DB()
	mustExec(t, db, "CREATE TABLE t (x INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	appends := db.Metrics().Counter("wal_appends_total")
	base := appends.Value()
	mustExec(t, db, "SELECT x FROM t")
	mustExec(t, db, "EXPLAIN SELECT x FROM t")
	mustExec(t, db, "CREATE VIEW v AS SELECT x FROM t")
	mustExec(t, db, "DROP VIEW v")
	if got := appends.Value(); got != base {
		t.Errorf("non-logged statements appended %d records", got-base)
	}
}

// TestHealthEndpoints pins the liveness/readiness contract: /healthz is
// always 200, /readyz tracks SetReady.
func TestHealthEndpoints(t *testing.T) {
	h := NewHealth()
	mux := http.NewServeMux()
	h.Register(mux)
	get := func(path string) int {
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec.Code
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz before ready: %d", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz before ready: %d", got)
	}
	h.SetReady(true)
	if got := get("/readyz"); got != http.StatusOK {
		t.Errorf("/readyz when ready: %d", got)
	}
	if !h.Ready() {
		t.Error("Ready() = false after SetReady(true)")
	}
	// Drain: readiness drops, liveness stays.
	h.SetReady(false)
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain: %d", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz during drain: %d", got)
	}
}
