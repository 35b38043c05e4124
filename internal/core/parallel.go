package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"sgb/internal/geom"
	"sgb/internal/unionfind"
)

// SGBAnyParallelColsCtx computes the DISTANCE-TO-ANY grouping of a columnar
// point set with a grid-partition parallel algorithm — an extension beyond
// the paper (its evaluation is single-threaded), exploiting that SGB-Any's
// output (the connected components of the ε-neighbourhood graph) is
// order-free and therefore embarrassingly decomposable:
//
//  1. Points are hashed into grid cells of side ε.
//  2. Workers process cells concurrently; each point is compared against
//     points in its own cell and in "forward" neighbour cells (offset
//     lexicographically positive), so every pair is examined exactly once.
//  3. Verified ε-edges are merged into a union-find forest; the components
//     are the groups.
//
// The result is identical to SGBAny (which the tests assert). workers <= 0
// selects GOMAXPROCS. Options.Algorithm is ignored. Once ctx is done the
// workers drain out and the call returns ctx.Err() instead of a partial
// result.
func SGBAnyParallelColsCtx(ctx context.Context, pts geom.Cols, opt Options, workers int) (*Result, error) {
	res, _, err := sgbAnyParallelCols(ctx, pts, opt, workers)
	return res, err
}

// gridCoord is the ε-grid cell index of coordinate v: floor(v/eps). Using
// math.Floor (rather than truncation patched up with a float-equality test)
// keeps boundary-straddling coordinates — negative values, exact multiples
// of ε — in their canonical cell, so no ε-edge can be dropped at a cell wall.
func gridCoord(v, eps float64) int64 {
	return int64(math.Floor(v / eps))
}

// sgbAnyParallelCols is the implementation behind SGBAnyParallelColsCtx. It
// additionally returns the per-worker partial Stats, which the driver
// folds into the result via Stats.add — the same aggregation path a
// distributed deployment would use, and the one the tests assert is lossless.
//
// The hot path is fully columnar: each worker gathers a cell's coordinates
// into a reusable columnar scratch slab once, then evaluates the similarity
// predicate against whole slabs with geom.WithinMask — one kernel call per
// probe point instead of a geom.Within call per pair.
func sgbAnyParallelCols(ctx context.Context, pts geom.Cols, opt Options, workers int) (*Result, []Stats, error) {
	opt.Overlap = JoinAny
	opt.Algorithm = IndexBounds
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	res := &Result{}
	n := pts.Len()
	if n == 0 {
		res.Stats.Rounds = 1
		return res, nil, nil
	}
	dim := pts.Dim()
	ptBuf := make(geom.Point, dim)
	for i := 0; i < n; i++ {
		ptBuf = pts.PointAt(i, ptBuf)
		if err := checkFinite(ptBuf); err != nil {
			return nil, nil, fmt.Errorf("core: point %d: %w", i, err)
		}
	}

	// Build the grid: cell key -> member ids. Cell side = ε guarantees that
	// any two points within ε (under any supported metric, since δ∞ ≤ δ)
	// sit in the same or an adjacent cell.
	type cellKey string
	cellOf := func(i int) cellKey {
		// A compact integer encoding of the per-axis cell coordinates.
		buf := make([]byte, 0, dim*10)
		for d := 0; d < dim; d++ {
			buf = appendInt(buf, gridCoord(pts.Col(d)[i], opt.Eps))
		}
		return cellKey(buf)
	}
	coordsOf := func(i int) []int64 {
		out := make([]int64, dim)
		for d := range out {
			out[d] = gridCoord(pts.Col(d)[i], opt.Eps)
		}
		return out
	}
	keyOfCoords := func(cs []int64) cellKey {
		buf := make([]byte, 0, dim*10)
		for _, c := range cs {
			buf = appendInt(buf, c)
		}
		return cellKey(buf)
	}

	cells := make(map[cellKey][]int, n/2+1)
	var order []cellKey
	for i := 0; i < n; i++ {
		k := cellOf(i)
		if _, ok := cells[k]; !ok {
			order = append(order, k)
		}
		cells[k] = append(cells[k], i)
	}

	// Forward neighbour offsets: the lexicographically positive half of
	// {-1,0,1}^dim \ {0}, so each unordered cell pair is visited once.
	var offsets [][]int64
	var gen func(prefix []int64)
	gen = func(prefix []int64) {
		if len(prefix) == dim {
			for _, v := range prefix {
				if v != 0 {
					off := append([]int64(nil), prefix...)
					offsets = append(offsets, off)
					return
				}
			}
			return
		}
		for _, v := range []int64{-1, 0, 1} {
			gen(append(prefix, v))
		}
	}
	gen(nil)
	forward := offsets[:0]
	for _, off := range offsets {
		for _, v := range off {
			if v > 0 {
				forward = append(forward, off)
				break
			} else if v < 0 {
				break
			}
		}
	}

	// Workers emit verified edges into per-worker buffers and keep their own
	// partial Stats; the driver merges the partials with Stats.add below, so
	// worker-side counters are never double-counted or dropped.
	type edge struct{ a, b int32 }
	edgeBufs := make([][]edge, workers)
	partStats := make([]Stats, workers)
	done := ctx.Done()
	canceled := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local []edge
			var part Stats
			// Per-worker kernel scratch, reused across every cell this
			// worker claims.
			cellScr := geom.NewCols(dim)
			nbScr := geom.NewCols(dim)
			var view geom.Cols
			var dists []float64
			var mask []bool
			grow := func(k int) ([]float64, []bool) {
				if cap(dists) < k {
					dists = make([]float64, k)
					mask = make([]bool, k)
				}
				return dists[:k], mask[:k]
			}
			probe := make(geom.Point, dim)
			nb := make([]int64, dim)
			for {
				ci := atomic.AddInt64(&next, 1)
				if ci >= int64(len(order)) || canceled() {
					break
				}
				members := cells[order[ci]]
				// Each cell is owned by exactly one worker, so counting its
				// members here partitions Points across workers.
				part.Points += len(members)
				cellScr.Gather(pts, members)
				// Intra-cell pairs: probe member i against the slab of
				// members after it.
				for i := 0; i+1 < len(members); i++ {
					probe = cellScr.PointAt(i, probe)
					view.SliceInto(cellScr, i+1, len(members))
					k := len(members) - i - 1
					d, m := grow(k)
					part.DistanceComps += int64(k)
					geom.WithinMask(opt.Metric, view, probe, opt.Eps, d, m)
					for j, in := range m {
						if in {
							local = append(local, edge{int32(members[i]), int32(members[i+1+j])})
						}
					}
				}
				// Forward neighbour cells: gather the other cell's slab once
				// per offset, then probe every member against it.
				base := coordsOf(members[0])
				for _, off := range forward {
					for d := range nb {
						nb[d] = base[d] + off[d]
					}
					other, ok := cells[keyOfCoords(nb)]
					if !ok {
						continue
					}
					nbScr.Gather(pts, other)
					for ai, a := range members {
						probe = cellScr.PointAt(ai, probe)
						d, m := grow(len(other))
						part.DistanceComps += int64(len(other))
						geom.WithinMask(opt.Metric, nbScr, probe, opt.Eps, d, m)
						for bi, in := range m {
							if in {
								local = append(local, edge{int32(a), int32(other[bi])})
							}
						}
					}
				}
			}
			edgeBufs[w] = local
			partStats[w] = part
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	uf := unionfind.New(n)
	var merges int64
	for _, buf := range edgeBufs {
		for _, e := range buf {
			if uf.Find(int(e.a)) != uf.Find(int(e.b)) {
				uf.Union(int(e.a), int(e.b))
				merges++
			}
		}
	}
	for _, ids := range uf.Groups() {
		sort.Ints(ids)
		res.Groups = append(res.Groups, Group{IDs: ids})
	}
	sort.Slice(res.Groups, func(i, j int) bool {
		return res.Groups[i].IDs[0] < res.Groups[j].IDs[0]
	})
	// Fold the per-worker partials; the merge phase runs on the driver, so
	// GroupsMerged and the pass count are added on top.
	for _, part := range partStats {
		res.Stats.add(part)
	}
	res.Stats.GroupsMerged = merges
	res.Stats.Rounds = 1
	return res, partStats, nil
}

// appendInt appends a length-prefixed little-endian encoding of v, making
// concatenated coordinates unambiguous.
func appendInt(buf []byte, v int64) []byte {
	u := uint64(v)
	var tmp [8]byte
	n := 0
	for {
		tmp[n] = byte(u)
		n++
		u >>= 8
		if u == 0 || n == 8 {
			break
		}
	}
	buf = append(buf, byte(n))
	return append(buf, tmp[:n]...)
}
