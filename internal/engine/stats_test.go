package engine

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// statsDB builds a small two-float-column table and returns it analyzed.
func statsDB(t *testing.T) (*DB, *Table) {
	t.Helper()
	db := NewDB()
	mustExec(t, db, "CREATE TABLE pts (id INT, x FLOAT, y FLOAT)")
	mustExec(t, db, "INSERT INTO pts VALUES (1, 0, 0), (2, 10, 10), (3, 5, 5), (4, 5, 6), (5, 0, 10)")
	tab, err := db.Catalog().Get("pts")
	if err != nil {
		t.Fatal(err)
	}
	return db, tab
}

// TestAnalyzeStatement pins the ANALYZE result shape and the catalog entry it
// produces: exact row count, per-column ranges and distinct counts, and a
// density sketch over the first two FLOAT columns.
func TestAnalyzeStatement(t *testing.T) {
	db, tab := statsDB(t)
	res := mustExec(t, db, "ANALYZE pts")
	if got, want := strings.Join(res.Columns, ","), "table,rows,sketch"; got != want {
		t.Fatalf("columns = %s, want %s", got, want)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if got := rowStrings(res)[0]; got != "pts|5|48x48 over (x, y)" {
		t.Errorf("summary row = %q", got)
	}

	s := tab.Stats
	if s == nil || !s.Fresh() {
		t.Fatalf("stats not fresh after ANALYZE: %+v", s)
	}
	if s.RowCount != 5 || s.AnalyzedRows != 5 || s.Stale != 0 {
		t.Errorf("counters = %+v", s)
	}
	id := s.Col(0)
	if id.DistinctEst != 5 || !id.HasRange || id.Min != 1 || id.Max != 5 {
		t.Errorf("id stats = %+v", id)
	}
	x := s.Col(1)
	if x.DistinctEst != 3 || x.Min != 0 || x.Max != 10 {
		t.Errorf("x stats = %+v", x)
	}
	if s.Sketch == nil || s.Sketch.N != 5 || s.Sketch.ColX != 1 || s.Sketch.ColY != 2 {
		t.Errorf("sketch = %+v", s.Sketch)
	}

	// Bare ANALYZE covers the whole catalog, one summary row per table.
	mustExec(t, db, "CREATE TABLE other (a INT)")
	res = mustExec(t, db, "ANALYZE")
	if len(res.Rows) != 2 {
		t.Fatalf("catalog ANALYZE rows = %d, want 2", len(res.Rows))
	}
	if _, err := db.Exec("ANALYZE nosuch"); err == nil {
		t.Error("ANALYZE of a missing table succeeded")
	}
}

// TestStatsIncrementalMaintenance checks the DML hooks: INSERT widens ranges
// and grows the sketch, UPDATE and DELETE churn the staleness counter, and
// enough churn flips Fresh off until the next ANALYZE.
func TestStatsIncrementalMaintenance(t *testing.T) {
	db, tab := statsDB(t)
	mustExec(t, db, "ANALYZE pts")
	s := tab.Stats

	mustExec(t, db, "INSERT INTO pts VALUES (6, -5, 20)")
	if s.RowCount != 6 || s.Stale != 1 {
		t.Errorf("after insert: %+v", s)
	}
	if x := s.Col(1); x.Min != -5 {
		t.Errorf("x range not widened: %+v", x)
	}
	if s.Sketch.N != 6 {
		t.Errorf("sketch not maintained: N=%d", s.Sketch.N)
	}

	mustExec(t, db, "UPDATE pts SET x = 1 WHERE id = 3")
	if s.RowCount != 6 || s.Stale != 2 {
		t.Errorf("after update: %+v", s)
	}
	if !s.Fresh() {
		t.Errorf("2 stale rows of 5 analyzed should still count as fresh")
	}

	mustExec(t, db, "DELETE FROM pts WHERE id = 1")
	if s.RowCount != 5 || s.Stale != 3 {
		t.Errorf("after delete: %+v", s)
	}
	if s.Fresh() {
		t.Errorf("stats still fresh past the half-churn threshold: %+v", s)
	}
	mustExec(t, db, "ANALYZE pts")
	if s = tab.Stats; !s.Fresh() || s.Stale != 0 || s.RowCount != 5 {
		t.Errorf("re-ANALYZE did not reset: %+v", s)
	}
}

// TestStatsRollbackRegression is the failure-atomicity regression test: an
// INSERT, UPDATE, or COPY that errors after validating (or mutating) part of
// its input must leave both the data and every statistics counter untouched.
func TestStatsRollbackRegression(t *testing.T) {
	db, tab := statsDB(t)
	mustExec(t, db, "ANALYZE pts")
	before := *tab.Stats
	beforeSketchN := tab.Stats.Sketch.N

	// INSERT whose second row is invalid: the batch validates before it
	// appends, so nothing lands.
	if _, err := db.Exec("INSERT INTO pts VALUES (7, 1, 1), (8, 'bad', 2)"); err == nil {
		t.Fatal("expected INSERT type error")
	}
	// UPDATE whose assignment fails on the second matching row, after the
	// first was already staged.
	if _, err := db.Exec("UPDATE pts SET x = CASE WHEN id = 1 THEN 0.5 ELSE 'bad' END"); err == nil {
		t.Fatal("expected UPDATE type error")
	}
	// COPY whose CSV breaks mid-file: parsed fully before insertion.
	path := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(path, []byte("id,x,y\n9,1,1\n10,nope,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("COPY pts FROM '" + path + "'"); err == nil {
		t.Fatal("expected COPY parse error")
	}

	after := tab.Stats
	if after.RowCount != before.RowCount || after.Stale != before.Stale ||
		after.AnalyzedRows != before.AnalyzedRows {
		t.Errorf("counters moved on rolled-back DML: before %+v after %+v", before, after)
	}
	if after.Sketch.N != beforeSketchN {
		t.Errorf("sketch grew on rolled-back DML: %d -> %d", beforeSketchN, after.Sketch.N)
	}
	if n := len(tab.Rows); n != 5 {
		t.Errorf("table has %d rows after failed DML, want 5", n)
	}
}

// TestStatsSurviveSnapshot round-trips the statistics catalog through
// save/load: a restored table plans with the same statistics it was saved
// with.
func TestStatsSurviveSnapshot(t *testing.T) {
	db, tab := statsDB(t)
	mustExec(t, db, "ANALYZE pts")
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := loaded.Catalog().Get("pts")
	if err != nil {
		t.Fatal(err)
	}
	if lt.Stats == nil || !lt.Stats.Fresh() {
		t.Fatalf("stats lost in snapshot round-trip: %+v", lt.Stats)
	}
	if lt.Stats.AnalyzedRows != tab.Stats.AnalyzedRows || lt.Stats.Sketch.N != tab.Stats.Sketch.N {
		t.Errorf("stats mismatch after load: %+v vs %+v", lt.Stats, tab.Stats)
	}
	if !loaded.Settings().SGBAuto {
		t.Error("auto algorithm selection lost in snapshot round-trip")
	}
}

// TestDensitySketchEstimates sanity-checks the two sketch estimators on a
// uniform grid, where both have closed-form expectations.
func TestDensitySketchEstimates(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE grid (x FLOAT, y FLOAT)")
	tab, err := db.Catalog().Get("grid")
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	for i := 0; i < 48; i++ {
		for j := 0; j < 48; j++ {
			rows = append(rows, Row{NewFloat(float64(i)), NewFloat(float64(j))})
		}
	}
	if err := tab.Insert(rows...); err != nil {
		t.Fatal(err)
	}
	s := tab.Analyze()
	sk := s.Sketch
	if sk == nil {
		t.Fatal("no sketch over a two-float table")
	}
	// One point per cell (modulo the shrunken boundary cells): a neighborhood
	// of area A should contain about A/cellArea ≈ A points.
	cell := sk.CellW * sk.CellH
	if k := sk.ExpectedNeighbors(9 * cell); k < 6 || k > 30 {
		t.Errorf("ExpectedNeighbors(9 cells) = %.1f on a uniform grid, want ≈9-ish", k)
	}
	occ := sk.OccupiedArea()
	total := float64(sketchGridSide*sketchGridSide) * cell
	if occ < total*0.5 || occ > total*1.01 {
		t.Errorf("OccupiedArea = %.1f of %.1f on a uniform grid", occ, total)
	}
	// Clamp check: a point far outside the analyzed bounding box still lands
	// in the sketch.
	n := sk.N
	sk.add(1e9, -1e9)
	if sk.N != n+1 {
		t.Errorf("out-of-box add lost: N=%d", sk.N)
	}
}
