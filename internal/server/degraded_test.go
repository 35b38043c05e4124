package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sgb/internal/client"
	"sgb/internal/engine"
	"sgb/internal/wal"
	"sgb/internal/wire"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStoreDegradedPromotes is the full degraded-state round trip: a disk
// that fills mid-write latches the store read-only, reads keep serving, and
// once the disk is restored the background probe promotes the store back to
// writable — with every applied statement durable across a restart.
func TestStoreDegradedPromotes(t *testing.T) {
	dir := t.TempDir()
	ffs := wal.NewFaultFS(wal.OS)
	s, err := OpenStore(StoreOptions{Dir: dir, FS: ffs, ProbeInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s.DB(), "CREATE TABLE t (x INT)")
	for i := 0; i < 3; i++ {
		mustExec(t, s.DB(), fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}

	// The disk fills: the next append tears and the store degrades. The
	// statement applied in memory before the hook ran, so it is visible to
	// reads (and the promotion checkpoint will make it durable) but was never
	// acknowledged to the caller.
	ffs.FailWithENOSPCAfter(0)
	_, err = s.DB().Exec("INSERT INTO t VALUES (100)")
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("write on full disk: %v, want ErrDegraded in the chain", err)
	}
	degraded, cause, since := s.Degraded()
	if !degraded || !errors.Is(cause, wal.ErrNoSpace) || since.IsZero() {
		t.Fatalf("Degraded() = %v/%v/%v after ENOSPC", degraded, cause, since)
	}
	if got := s.DB().Metrics().Gauge("server_degraded").Value(); got != 1 {
		t.Fatalf("server_degraded = %v while degraded", got)
	}
	if s.RetryAfter() != 10*time.Millisecond {
		t.Fatalf("RetryAfter() = %v, want the probe interval", s.RetryAfter())
	}
	// Reads keep serving the in-process state while the disk is broken.
	if n := countRows(t, s.DB(), "t"); n != 4 {
		t.Fatalf("read while degraded: %d rows, want 4 (3 acked + 1 applied-unacked)", n)
	}
	// The probe keeps failing while the disk stays full; the store stays
	// read-only and keeps rejecting writes fast.
	time.Sleep(30 * time.Millisecond)
	if d, _, _ := s.Degraded(); !d {
		t.Fatal("store promoted while the disk was still full")
	}
	if _, err := s.DB().Exec("INSERT INTO t VALUES (101)"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("write while degraded: %v, want ErrDegraded", err)
	}

	// Disk space frees up: the probe repairs the log, checkpoints, and
	// promotes without any operator call.
	ffs.RestoreDisk()
	waitFor(t, "probe promotion", func() bool { d, _, _ := s.Degraded(); return !d })
	m := s.DB().Metrics()
	if got := m.Gauge("server_degraded").Value(); got != 0 {
		t.Fatalf("server_degraded = %v after promotion", got)
	}
	if got := m.Counter("server_degraded_recoveries_total").Value(); got == 0 {
		t.Fatal("server_degraded_recoveries_total not incremented")
	}
	mustExec(t, s.DB(), "INSERT INTO t VALUES (200)")
	if err := s.Close(); err != nil {
		t.Fatalf("close after promotion: %v", err)
	}

	// Restart: the acked prefix, both applied-during-fault statements (made
	// durable by the promotion checkpoint), and the post-promotion write all
	// survive.
	s2, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := countRows(t, s2.DB(), "t"); n != 6 {
		t.Fatalf("recovered %d rows, want 6", n)
	}
}

// TestStoreDegradedPromoteRetriesCheckpointFault: promotion is atomic — if
// the log repairs but the checkpoint-publish rename fails, the store stays
// degraded and the next probe tick completes the promotion.
func TestStoreDegradedPromoteRetriesCheckpointFault(t *testing.T) {
	dir := t.TempDir()
	ffs := wal.NewFaultFS(wal.OS)
	s, err := OpenStore(StoreOptions{Dir: dir, FS: ffs, ProbeInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustExec(t, s.DB(), "CREATE TABLE t (x INT)")
	mustExec(t, s.DB(), "INSERT INTO t VALUES (1)")

	// A delayed-allocation disk: the write lands but the fsync reports ENOSPC.
	ffs.FailSyncAtErr(1, wal.ErrNoSpace)
	if _, err := s.DB().Exec("INSERT INTO t VALUES (2)"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("write with failing fsync: %v, want ErrDegraded", err)
	}
	// Heal the fsyncs but fail the next checkpoint rename: the first probe's
	// Recover succeeds, its Checkpoint does not, and the store must stay
	// degraded rather than promote with no durable snapshot.
	ffs.FailSyncAtErr(0, nil)
	ffs.FailRenameAt(1)
	m := s.DB().Metrics()
	waitFor(t, "a failed promotion probe", func() bool {
		return m.Counter("server_degraded_probe_failures_total").Value() > 0
	})
	// The rename fault is one-shot, so a later tick finishes the job.
	waitFor(t, "probe promotion after checkpoint retry", func() bool {
		d, _, _ := s.Degraded()
		return !d
	})
	mustExec(t, s.DB(), "INSERT INTO t VALUES (3)")
	if n := countRows(t, s.DB(), "t"); n != 3 {
		t.Fatalf("%d rows after recovered promotion, want 3", n)
	}
}

// TestServerDegradedReadOnlyOverWire drives the degraded state end to end
// through the wire protocol: writes come back as CodeReadOnly with the probe
// interval as a retry-after hint, reads keep streaming rows, and after the
// disk recovers the same session's writes succeed again.
func TestServerDegradedReadOnlyOverWire(t *testing.T) {
	dir := t.TempDir()
	ffs := wal.NewFaultFS(wal.OS)
	store, err := OpenStore(StoreOptions{Dir: dir, FS: ffs, ProbeInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv := startServer(t, store.DB(), Config{Store: store})
	c := connect(t, srv)

	if _, err := c.Exec("CREATE TABLE t (x INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO t VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}

	ffs.FailWithENOSPCAfter(0)
	_, err = c.Exec("INSERT INTO t VALUES (3)")
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeReadOnly {
		t.Fatalf("write on degraded server: %v, want CodeReadOnly ServerError", err)
	}
	if se.RetryAfterMS == 0 {
		t.Fatal("CodeReadOnly rejection carried no retry-after hint")
	}
	if se.RetryAfter() != 20*time.Millisecond {
		t.Fatalf("retry-after hint %v, want the 20ms probe interval", se.RetryAfter())
	}
	// The same connection keeps serving reads while degraded.
	res, err := c.Exec("SELECT count(*) FROM t")
	if err != nil {
		t.Fatalf("read on degraded server: %v", err)
	}
	if res.Rows[0][0].I != 3 {
		t.Fatalf("read %d rows while degraded, want 3 (applied-unacked included)", res.Rows[0][0].I)
	}

	// Disk restored: retrying per the hint eventually succeeds on the same
	// connection, exactly what a well-behaved client does with the hint.
	ffs.RestoreDisk()
	waitFor(t, "a write to succeed after restore", func() bool {
		_, err := c.Exec("INSERT INTO t VALUES (4)")
		return err == nil
	})
}

// TestServerPanicIsolation: a panic inside statement execution must be
// contained to that statement — the client gets CodeInternal, the connection
// stays usable, the daemon keeps serving, and the stack lands in the slowlog
// trace for diagnosis.
func TestServerPanicIsolation(t *testing.T) {
	db := engine.NewDB()
	loadPoints(t, db, 100)
	// Threshold 0 logs every statement, so the panicking one reaches the
	// slowlog with its annotated trace.
	srv := startServer(t, db, Config{SlowQueryThreshold: 0})
	db.SetExecHook(func(sql string) {
		if strings.Contains(sql, "424242") {
			panic("injected engine bug")
		}
	})
	defer db.SetExecHook(nil)
	c := connect(t, srv)

	_, err := c.Exec("SELECT count(*) FROM pts WHERE id = 424242")
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeInternal {
		t.Fatalf("panicking statement returned %v, want CodeInternal ServerError", err)
	}
	if !strings.Contains(se.Message, "panicked") {
		t.Fatalf("error message %q does not mention the panic", se.Message)
	}
	// The connection survives and serves the next statement.
	res, err := c.Exec("SELECT count(*) FROM pts")
	if err != nil {
		t.Fatalf("statement after panic on same connection: %v", err)
	}
	if res.Rows[0][0].I != 100 {
		t.Fatalf("count after panic = %d, want 100", res.Rows[0][0].I)
	}
	// So does a fresh connection — the daemon never went down.
	c2 := connect(t, srv)
	if _, err := c2.Exec("SELECT count(*) FROM pts"); err != nil {
		t.Fatalf("fresh connection after panic: %v", err)
	}
	if got := db.Metrics().Counter("server_panics_recovered_total").Value(); got == 0 {
		t.Fatal("server_panics_recovered_total not incremented")
	}
	// The stack trace is captured on the statement's slowlog entry.
	waitFor(t, "the panic in the slowlog", func() bool {
		for _, q := range srv.SlowLog().Entries() {
			if !strings.Contains(q.SQL, "424242") {
				continue
			}
			var sawPanic, sawStack bool
			for _, n := range q.Trace.Notes {
				if strings.Contains(n, "panic: injected engine bug") {
					sawPanic = true
				}
				if strings.Contains(n, "goroutine") { // debug.Stack output
					sawStack = true
				}
			}
			return sawPanic && sawStack
		}
		return false
	})
}

// TestServerAdmissionQueueAndShed: with one execution slot and a one-deep
// admission queue, a second statement queues (visible in the process list)
// and a third sheds immediately with CodeOverloaded plus a retry-after hint;
// once the slot frees, the queued statement completes normally.
func TestServerAdmissionQueueAndShed(t *testing.T) {
	db := engine.NewDB()
	loadPoints(t, db, 50)
	srv := startServer(t, db, Config{
		MaxActiveQueries:   1,
		AdmissionQueue:     1,
		SlowQueryThreshold: 0,
	})
	block := make(chan struct{})
	var unblock sync.Once
	release := func() { unblock.Do(func() { close(block) }) }
	defer release()
	db.SetExecHook(func(sql string) {
		if strings.Contains(sql, "777000") {
			<-block
		}
	})
	defer db.SetExecHook(nil)

	// Statement 1 takes the only slot and parks inside the engine.
	c1 := connect(t, srv)
	slotHeld := make(chan error, 1)
	go func() {
		_, err := c1.Exec("SELECT count(*) FROM pts WHERE id = 777000")
		slotHeld <- err
	}()
	waitFor(t, "the blocking statement to hold the slot", func() bool {
		return len(srv.ProcessList()) == 1
	})

	// Statement 2 queues for admission; the process list shows it waiting.
	c2 := connect(t, srv)
	queuedDone := make(chan error, 1)
	go func() {
		_, err := c2.Exec("SELECT count(*) FROM pts")
		queuedDone <- err
	}()
	waitFor(t, "a queued statement in the process list", func() bool {
		for _, q := range srv.ProcessList() {
			if q.State == "queued" {
				return true
			}
		}
		return false
	})
	if got := db.Metrics().Gauge("server_admission_queued").Value(); got != 1 {
		t.Fatalf("server_admission_queued = %v with one waiter", got)
	}

	// Statement 3 finds the queue full: shed, not queued, with a hint.
	c3 := connect(t, srv)
	_, err := c3.Exec("SELECT count(*) FROM pts")
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeOverloaded {
		t.Fatalf("over-queue statement returned %v, want CodeOverloaded ServerError", err)
	}
	if se.RetryAfter() != shedRetryAfter {
		t.Fatalf("shed hint %v, want %v", se.RetryAfter(), shedRetryAfter)
	}
	if got := db.Metrics().Counter("server_queries_shed_total").Value(); got == 0 {
		t.Fatal("server_queries_shed_total not incremented")
	}
	// The shed statement's slowlog entry landed before its Error frame: the
	// other two statements are still in flight, so it is the only entry.
	entries := srv.SlowLog().Entries()
	if len(entries) != 1 || entries[0].TraceID != c3.LastTraceID() || entries[0].Err == "" {
		t.Fatalf("slowlog when the shed reply arrived = %+v, want only the shed statement %s",
			entries, c3.LastTraceID())
	}
	// The shed connection remains usable once load drops.
	release()
	if err := <-slotHeld; err != nil {
		t.Fatalf("blocking statement: %v", err)
	}
	if err := <-queuedDone; err != nil {
		t.Fatalf("queued statement: %v", err)
	}
	if _, err := c3.Exec("SELECT count(*) FROM pts"); err != nil {
		t.Fatalf("shed connection after load dropped: %v", err)
	}
	waitFor(t, "the admission-queued gauge to drain", func() bool {
		return db.Metrics().Gauge("server_admission_queued").Value() == 0
	})
}

// TestServerQueuedStatementCancel: a wire Cancel aborts a statement still
// waiting for admission — it never takes a slot, the client gets
// CodeCanceled, and the connection stays usable.
func TestServerQueuedStatementCancel(t *testing.T) {
	db := engine.NewDB()
	loadPoints(t, db, 50)
	srv := startServer(t, db, Config{
		MaxActiveQueries:   1,
		AdmissionQueue:     4,
		SlowQueryThreshold: -1,
	})
	block := make(chan struct{})
	var unblock sync.Once
	release := func() { unblock.Do(func() { close(block) }) }
	defer release()
	db.SetExecHook(func(sql string) {
		if strings.Contains(sql, "777000") {
			<-block
		}
	})
	defer db.SetExecHook(nil)

	c1 := connect(t, srv)
	slotHeld := make(chan error, 1)
	go func() {
		_, err := c1.Exec("SELECT count(*) FROM pts WHERE id = 777000")
		slotHeld <- err
	}()
	waitFor(t, "the blocking statement to hold the slot", func() bool {
		return len(srv.ProcessList()) == 1
	})

	c2 := connect(t, srv)
	ctx, cancel := context.WithCancel(context.Background())
	queuedDone := make(chan error, 1)
	go func() {
		_, err := c2.Query(ctx, "SELECT count(*) FROM pts")
		queuedDone <- err
	}()
	waitFor(t, "the statement to queue", func() bool {
		for _, q := range srv.ProcessList() {
			if q.State == "queued" {
				return true
			}
		}
		return false
	})
	cancel()
	select {
	case err := <-queuedDone:
		if err == nil {
			t.Fatal("canceled queued statement succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled queued statement never returned")
	}
	// The connection survives the canceled-while-queued statement.
	release()
	if err := <-slotHeld; err != nil {
		t.Fatalf("blocking statement: %v", err)
	}
	if _, err := c2.Exec("SELECT count(*) FROM pts"); err != nil {
		t.Fatalf("connection after queued cancel: %v", err)
	}
}

// TestHealthDegradedReadyz: a degraded store stays ready (it serves reads)
// but /readyz reports the state for operators and balancers.
func TestHealthDegradedReadyz(t *testing.T) {
	h := NewHealth()
	mux := http.NewServeMux()
	h.Register(mux)
	h.SetReady(true)
	degraded := false
	h.SetDegradedFunc(func() bool { return degraded })

	get := func() (int, string) {
		req := httptest.NewRequest("GET", "/readyz", nil)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}
	if code, body := get(); code != http.StatusOK || strings.Contains(body, "degraded") {
		t.Fatalf("healthy readyz: %d %q", code, body)
	}
	degraded = true
	if code, body := get(); code != http.StatusOK || !strings.Contains(body, "degraded") {
		t.Fatalf("degraded readyz: %d %q — must stay 200 but report the state", code, body)
	}
}
