package main

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"sgb/internal/checkin"
)

// table is the one table every workload queries.
const table = "checkins"

// userBytes is the user payload of one acknowledged row: three 8-byte
// columns (user_id, lat, lon).
const userBytes = 24

// loadChunk is the number of rows per INSERT statement when loading a table.
const loadChunk = 500

// layoutSeed fixes where the hotspots are. The run's seed draws the points,
// so every seed gives new inputs from one distribution: with the layout
// drawn per seed too, a seed whose big hotspots happen to overlap made
// SGB-Any at ε 0.25 66% slower and FORM-NEW-GROUP five times slower, which
// is a different workload rather than noise.
const layoutSeed = 1

// generate returns n check-ins drawn with the seed from the checkin
// package's model at its defaults: 40 Gaussian hotspots of spread 0.05° over
// the continental US with Zipf-like weights, 5% uniform background, and
// n/20 users. Only the hotspot centres come from layoutSeed.
func generate(n int, seed int64) []checkin.Checkin {
	const hotspots, spread, background = 40, 0.05, 0.05
	latMin, latMax, lonMin, lonMax := 25.0, 49.0, -125.0, -67.0
	layout := rand.New(rand.NewSource(layoutSeed))
	type hotspot struct{ lat, lon, w float64 }
	spots := make([]hotspot, hotspots)
	var totalW float64
	for i := range spots {
		spots[i] = hotspot{
			lat: latMin + layout.Float64()*(latMax-latMin),
			lon: lonMin + layout.Float64()*(lonMax-lonMin),
			w:   1 / float64(i+1),
		}
		totalW += spots[i].w
	}
	r := rand.New(rand.NewSource(seed))
	users := max(n/20, 1)
	out := make([]checkin.Checkin, n)
	for i := range out {
		var lat, lon float64
		if r.Float64() < background {
			lat = latMin + r.Float64()*(latMax-latMin)
			lon = lonMin + r.Float64()*(lonMax-lonMin)
		} else {
			target, acc, s := r.Float64()*totalW, 0.0, spots[len(spots)-1]
			for _, h := range spots {
				if acc += h.w; acc >= target {
					s = h
					break
				}
			}
			lat = s.lat + r.NormFloat64()*spread
			lon = s.lon + r.NormFloat64()*spread
		}
		out[i] = checkin.Checkin{
			UserID: 1 + r.Intn(users),
			Lat:    min(max(lat, latMin), latMax),
			Lon:    min(max(lon, lonMin), lonMax),
		}
	}
	return out
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// insertSQL renders rows as one multi-row INSERT. Floats are written in
// shortest round-trip form, so the engine stores exactly the generated bits.
func insertSQL(rows []checkin.Checkin) string {
	var b strings.Builder
	b.WriteString("INSERT INTO " + table + " VALUES ")
	for i, c := range rows {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %s, %s)", c.UserID, fmtFloat(c.Lat), fmtFloat(c.Lon))
	}
	return b.String()
}

// exactAgg is the exactly rounded sum and mean of one user's check-ins.
type exactAgg struct {
	count              int
	sumLat, avgLat     float64
	sumLon, avgLon     float64
	latExact, lonExact big.Rat
}

// exactByUser computes, with math/big, the exactly rounded per-user sums and
// means the float aggregates are checked against.
func exactByUser(rows []checkin.Checkin) map[int]*exactAgg {
	out := make(map[int]*exactAgg)
	var r big.Rat
	for _, c := range rows {
		a := out[c.UserID]
		if a == nil {
			a = &exactAgg{}
			out[c.UserID] = a
		}
		a.count++
		a.latExact.Add(&a.latExact, r.SetFloat64(c.Lat))
		a.lonExact.Add(&a.lonExact, r.SetFloat64(c.Lon))
	}
	for _, a := range out {
		a.sumLat, _ = a.latExact.Float64()
		a.sumLon, _ = a.lonExact.Float64()
		n := new(big.Rat).SetInt64(int64(a.count))
		a.avgLat, _ = new(big.Rat).Quo(&a.latExact, n).Float64()
		a.avgLon, _ = new(big.Rat).Quo(&a.lonExact, n).Float64()
	}
	return out
}

// closeTo reports whether got is within 1e-12 relative of the exactly
// rounded want, and separately whether it is bit-identical.
func closeTo(got, want float64) (ok, identical bool) {
	if got == want {
		return true, true
	}
	return math.Abs(got-want) <= 1e-12*math.Abs(want), false
}

// componentSizes returns the ascending sizes of the connected components of
// the ε-graph over pts, whose edges join points at L2 distance <= eps. It is
// the checker's independent oracle for SGB-Any: points are bucketed into
// square cells of side just under eps/√2, so a cell is a clique and takes one
// union; two cells need a distance test only while their roots differ, and
// the first pair within eps settles them. The distance test accumulates the
// squared differences in dimension order, as the engine's kernels do.
func componentSizes(pts [][2]float64, eps float64) []int {
	if len(pts) == 0 {
		return nil
	}
	side := eps / math.Sqrt2 * (1 - 1e-9)
	type cell struct{ x, y int64 }
	cells := make(map[cell][]int32)
	keys := make([]cell, 0)
	for i, p := range pts {
		k := cell{int64(math.Floor(p[0] / side)), int64(math.Floor(p[1] / side))}
		if _, ok := cells[k]; !ok {
			keys = append(keys, k)
		}
		cells[k] = append(cells[k], int32(i))
	}
	parent := make([]int32, len(pts))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, k := range keys {
		members := cells[k]
		for _, m := range members[1:] {
			union(members[0], m)
		}
	}
	e2 := eps * eps
	within := func(a, b int32) bool {
		// The conversions forbid fused multiply-adds, which would round
		// differently from the engine's kernels.
		dx := pts[a][0] - pts[b][0]
		dy := pts[a][1] - pts[b][1]
		return float64(dx*dx)+float64(dy*dy) <= e2
	}
	// A point within eps of a cell lies at most two cells away (eps/side is
	// just over √2); each unordered cell pair is visited once.
	for _, k := range keys {
		a := cells[k]
		for dx := int64(-2); dx <= 2; dx++ {
			for dy := int64(-2); dy <= 2; dy++ {
				if dx < 0 || (dx == 0 && dy <= 0) {
					continue
				}
				b, ok := cells[cell{k.x + dx, k.y + dy}]
				if !ok || find(a[0]) == find(b[0]) {
					continue
				}
			pairs:
				for _, i := range a {
					for _, j := range b {
						if within(i, j) {
							union(i, j)
							break pairs
						}
					}
				}
			}
		}
	}
	counts := make(map[int32]int)
	for i := range pts {
		counts[find(int32(i))]++
	}
	sizes := make([]int, 0, len(counts))
	for _, c := range counts {
		sizes = append(sizes, c)
	}
	sort.Ints(sizes)
	return sizes
}

func pointsOf(rows []checkin.Checkin) [][2]float64 {
	out := make([][2]float64, len(rows))
	for i, c := range rows {
		out[i] = [2]float64{c.Lat, c.Lon}
	}
	return out
}
