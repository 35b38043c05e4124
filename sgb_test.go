package sgb

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"sgb/internal/core"
)

// TestFacadeGroupAll exercises the public operator API end to end on the
// paper's Figure 2 example.
func TestFacadeGroupAll(t *testing.T) {
	points := []Point{{1, 1}, {2, 2}, {6, 1}, {7, 2}, {4, 1.5}}
	res, err := GroupAll(points, Options{Metric: LInf, Eps: 3, Overlap: JoinAny, Algorithm: IndexBounds})
	if err != nil {
		t.Fatal(err)
	}
	sizes := res.Sizes()
	sort.Ints(sizes)
	if !reflect.DeepEqual(sizes, []int{2, 3}) {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestFacadeGroupAny(t *testing.T) {
	points := []Point{{1, 1}, {2, 2}, {6, 1}, {7, 2}, {4, 1.5}}
	res, err := GroupAny(points, Options{Metric: LInf, Eps: 3, Algorithm: IndexBounds})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 || res.Groups[0].Len() != 5 {
		t.Fatalf("groups = %v", res.Groups)
	}
}

func TestFacadeStreaming(t *testing.T) {
	g, err := NewAllGrouper(Options{Metric: L2, Eps: 1.5, Overlap: Eliminate, Algorithm: BoundsChecking})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Point{{0, 0}, {1, 0}, {5, 5}} {
		if _, err := g.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	res, err := g.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %v", res.Groups)
	}

	a, err := NewAnyGrouper(Options{Metric: L2, Eps: 1.5, Algorithm: AllPairs})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Point{{0, 0}, {1, 0}, {2, 0}} {
		if _, err := a.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	ares, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(ares.Groups) != 1 {
		t.Fatalf("any groups = %v", ares.Groups)
	}
}

// TestFacadeSQL exercises the SQL entry point, including the similarity
// grammar and an aggregate.
func TestFacadeSQL(t *testing.T) {
	db := NewDB()
	steps := []string{
		"CREATE TABLE pts (id INT, x FLOAT, y FLOAT)",
		"INSERT INTO pts VALUES (1, 1, 1), (2, 2, 2), (3, 6, 1), (4, 7, 2), (5, 4, 1.5)",
	}
	for _, s := range steps {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	res, err := db.Query(`
		SELECT count(*), list_id(id) FROM pts
		GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 3 ON-OVERLAP ELIMINATE`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for _, r := range res.Rows {
		if r[0].I != 2 {
			t.Fatalf("expected groups of 2, got %v", r[0])
		}
	}
}

func TestFacadeEnumsRoundTrip(t *testing.T) {
	if L2.String() != "L2" || LInf.String() != "LINF" {
		t.Error("metric constants mis-wired")
	}
	if JoinAny.String() != "JOIN-ANY" || FormNewGroup.String() != "FORM-NEW-GROUP" {
		t.Error("overlap constants mis-wired")
	}
	if AllPairs.String() != "All-Pairs" || IndexBounds.String() != "on-the-fly Index" {
		t.Error("algorithm constants mis-wired")
	}
}

func TestFacadeParallelMatchesSequential(t *testing.T) {
	points := []Point{{0, 0}, {1, 0}, {2, 0}, {9, 9}, {9.5, 9.5}}
	seq, err := GroupAny(points, Options{Metric: L1, Eps: 1.5, Algorithm: IndexBounds})
	if err != nil {
		t.Fatal(err)
	}
	par, err := GroupAnyParallel(points, Options{Metric: L1, Eps: 1.5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Groups, par.Groups) {
		t.Fatalf("parallel %v vs sequential %v", par.Groups, seq.Groups)
	}
}

// TestFacadeParallelRejectsBadInput pins the []Point adapter's validation,
// which a columnar point set cannot express: ragged input fails with
// ErrDimensionMismatch and zero-dimensional points are refused.
func TestFacadeParallelRejectsBadInput(t *testing.T) {
	opt := Options{Metric: L2, Eps: 1}
	if _, err := GroupAnyParallel([]Point{{1, 1}, {1}}, opt, 2); !errors.Is(err, core.ErrDimensionMismatch) {
		t.Errorf("mixed dimensions: err = %v, want ErrDimensionMismatch", err)
	}
	for _, pts := range [][]Point{{{}}, {{1, 1}, {}}} {
		if _, err := GroupAnyParallel(pts, opt, 2); err == nil {
			t.Errorf("%v: zero-dimensional point accepted", pts)
		}
	}
}
