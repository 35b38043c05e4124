package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"sgb/internal/geom"
)

// parallelAny runs the grid-parallel grouping over a row-major point set.
func parallelAny(pts []geom.Point, opt Options, workers int) (*Result, error) {
	return SGBAnyParallelColsCtx(context.Background(), geom.ColsFromPoints(pts), opt, workers)
}

// TestParallelAnyMatchesSequential is the defining property of the parallel
// extension: byte-for-byte identical groupings to the sequential SGB-Any.
func TestParallelAnyMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(100))
	for _, m := range []geom.Metric{geom.L2, geom.LInf, geom.L1} {
		for _, dim := range []int{1, 2, 3} {
			for _, workers := range []int{1, 2, 8} {
				for trial := 0; trial < 6; trial++ {
					n := 50 + r.Intn(300)
					eps := 0.3 + r.Float64()
					pts := randomPoints(r, n, dim, 10)
					want, err := SGBAny(pts, Options{Metric: m, Eps: eps, Algorithm: IndexBounds})
					if err != nil {
						t.Fatal(err)
					}
					got, err := parallelAny(pts, Options{Metric: m, Eps: eps}, workers)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Groups, want.Groups) {
						t.Fatalf("%v/dim%d/workers%d: parallel grouping differs", m, dim, workers)
					}
				}
			}
		}
	}
}

func TestParallelAnyNegativeCoordinates(t *testing.T) {
	// Cells around the origin exercise the floor-division boundary.
	pts := []geom.Point{
		{-0.1, -0.1}, {0.1, 0.1}, // adjacent cells across the origin, within eps
		{-5, -5}, {-5.2, -5.2}, // negative-quadrant pair
		{3, 3}, // isolated
	}
	want, err := SGBAny(pts, Options{Metric: geom.L2, Eps: 0.5, Algorithm: AllPairs})
	if err != nil {
		t.Fatal(err)
	}
	got, err := parallelAny(pts, Options{Metric: geom.L2, Eps: 0.5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Groups, want.Groups) {
		t.Fatalf("parallel %v vs sequential %v", got.Groups, want.Groups)
	}
}

func TestParallelAnyExactCellBoundary(t *testing.T) {
	// Points exactly eps apart land in adjacent cells and must connect
	// (the predicate is <=).
	pts := []geom.Point{{0, 0}, {1, 0}, {2, 0}}
	got, err := parallelAny(pts, Options{Metric: geom.L2, Eps: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Groups) != 1 || len(got.Groups[0].IDs) != 3 {
		t.Fatalf("boundary chain split: %v", got.Groups)
	}
}

func TestParallelAnyDegenerate(t *testing.T) {
	res, err := parallelAny(nil, Options{Metric: geom.L2, Eps: 1}, 0)
	if err != nil || len(res.Groups) != 0 {
		t.Fatalf("empty input: %v %v", res, err)
	}
	res, err = parallelAny([]geom.Point{{1, 1}}, Options{Metric: geom.L2, Eps: 1}, 0)
	if err != nil || len(res.Groups) != 1 {
		t.Fatalf("singleton: %v %v", res, err)
	}
	if _, err := parallelAny(nil, Options{Metric: geom.L2, Eps: 0}, 0); err == nil {
		t.Error("eps=0 accepted")
	}
}

func TestParallelAnyStats(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	pts := randomPoints(r, 500, 2, 5)
	res, parts, err := sgbAnyParallelCols(context.Background(), geom.ColsFromPoints(pts), Options{Metric: geom.L2, Eps: 0.5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Points != 500 || res.Stats.DistanceComps == 0 || res.Stats.Rounds != 1 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	// Groups + merges bookkeeping: n - merges = number of groups.
	if int64(len(res.Groups)) != int64(500)-res.Stats.GroupsMerged {
		t.Fatalf("%d groups but %d merges over 500 points", len(res.Groups), res.Stats.GroupsMerged)
	}

	// Stats.add over the per-partition (per-worker) stats must reproduce the
	// result's aggregate exactly: the cells partition the input, so worker
	// counters are disjoint and their sum is the whole.
	if len(parts) != 4 {
		t.Fatalf("%d partitions, want 4", len(parts))
	}
	var merged Stats
	for _, p := range parts {
		merged.add(p)
	}
	if merged.Points != res.Stats.Points {
		t.Errorf("merged Points = %d, result reports %d", merged.Points, res.Stats.Points)
	}
	if merged.DistanceComps != res.Stats.DistanceComps {
		t.Errorf("merged DistanceComps = %d, result reports %d", merged.DistanceComps, res.Stats.DistanceComps)
	}
	// The driver-side merge phase is the only source of GroupsMerged; the
	// workers must not have claimed any.
	if merged.GroupsMerged != 0 {
		t.Errorf("workers reported %d merges; merging happens on the driver", merged.GroupsMerged)
	}
}

// TestStatsAddCoversAllFields locks the contract between Stats.add and the
// parallel executor: every counter field must be summed when partition stats
// are folded together. Rounds is the one deliberate exception (it counts
// grouping passes, not per-partition work). Reflection catches any future
// Stats field that is added to the struct but forgotten in add.
func TestStatsAddCoversAllFields(t *testing.T) {
	var sum, part Stats
	pv := reflect.ValueOf(&part).Elem()
	for i := 0; i < pv.NumField(); i++ {
		pv.Field(i).SetInt(int64(i + 1))
	}
	sum.add(part)
	sum.add(part)
	sv := reflect.ValueOf(&sum).Elem()
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		got := sv.Field(i).Int()
		if name == "Rounds" {
			if got != 0 {
				t.Errorf("Rounds must not be summed across partitions, got %d", got)
			}
			continue
		}
		if want := int64(2 * (i + 1)); got != want {
			t.Errorf("Stats.add drops or miscounts field %s: got %d, want %d", name, got, want)
		}
	}
}

func BenchmarkParallelAnyVsSequential(b *testing.B) {
	r := rand.New(rand.NewSource(102))
	pts := randomPoints(r, 30000, 2, 30)
	opt := Options{Metric: geom.L2, Eps: 0.5}
	b.Run("sequential-index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := opt
			o.Algorithm = IndexBounds
			if _, err := SGBAny(pts, o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel-grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := parallelAny(pts, opt, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
