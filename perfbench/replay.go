package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"sgb/internal/core"
	"sgb/internal/engine"
	"sgb/internal/geom"
	"sgb/internal/wire"
)

// replayed is one traced statement re-run embedded, layer by layer.
type replayed struct {
	class             int
	parse, plan, exec time.Duration
	codec             time.Duration
	resultBytes       int
	rt                time.Duration // the same statement over the wire, alone
	sgb               bool
	core              time.Duration
	coreAlloc         uint64
	stats             core.Stats
}

// replay re-runs traced statements embedded on the server's own DB, after
// the measured phase, and records parse, plan, exec, core and wire-codec
// spans under each statement's id. Classes take turns, so every class is
// replayed at least once; replay stops after a quarter of the measured time
// once each class has had its turn.
func (r *readsRun) replay(ctx context.Context, recs []stmtRec, rep *report) error {
	queues := make([][]stmtRec, len(r.classes))
	for _, rec := range recs {
		if rec.traced && !rec.failed {
			queues[rec.class] = append(queues[rec.class], rec)
		}
	}
	sess := r.st.db.NewSession()
	budget := time.Duration(r.cfg.seconds / 4 * float64(time.Second))
	start := time.Now()
	var out []replayed
	// first holds the core counters of each class's first replayed
	// statement: one statement per class, so the sums are fixed by the seed.
	var first []core.Stats
	for round := 0; ; round++ {
		progressed := false
		for ci := range r.classes {
			if round >= len(queues[ci]) {
				continue
			}
			if round > 0 && time.Since(start) > budget {
				r.finishReplay(out, first, rep)
				return nil
			}
			rp, err := r.replayOne(ctx, sess, queues[ci][round], round%2 == 1)
			if err != nil {
				return err
			}
			if round == 0 {
				first = append(first, rp.stats)
			}
			out = append(out, rp)
			progressed = true
		}
		if !progressed {
			r.finishReplay(out, first, rep)
			return nil
		}
	}
}

func (r *readsRun) replayOne(ctx context.Context, sess *engine.Session, rec stmtRec, wireFirst bool) (replayed, error) {
	cls := &r.classes[rec.class]
	sql := cls.sql(rec.k)
	rp := replayed{class: rec.class}
	mark := func(name string, t0 time.Time, bytes int64) {
		r.rec.add(span{Stmt: rec.stmt, Parent: rec.root, Name: name, Note: cls.name,
			Start: r.rec.ns(t0), End: r.rec.ns(time.Now()), Bytes: bytes})
	}

	t0 := time.Now()
	stmt, err := engine.Parse(sql)
	rp.parse = time.Since(t0)
	mark("engine.parse", t0, 0)
	if err != nil {
		return rp, err
	}

	// Plan time is EXPLAIN's time less the parse time.
	t0 = time.Now()
	plan, err := sess.Exec("EXPLAIN " + sql)
	rp.plan = time.Since(t0) - rp.parse
	mark("engine.plan", t0, 0)
	if err != nil {
		return rp, err
	}

	// The server's own time is this statement's round trip over the wire
	// less its embedded parse, exec and codec time, both taken here, alone,
	// so neither waits for another client's CPU. Which of the two runs
	// first alternates, so neither always inherits the other's garbage.
	var res *engine.Result
	embedded := func() error {
		t0 := time.Now()
		res, err = sess.ExecStmtContext(ctx, stmt)
		rp.exec = time.Since(t0)
		mark("engine.exec", t0, 0)
		return err
	}
	overWire := func() error {
		qctx, cancel := context.WithTimeout(ctx, stmtTimeout)
		defer cancel()
		t0 := time.Now()
		_, err := r.conns[0].Query(qctx, sql)
		rp.rt = time.Since(t0)
		mark("client.query", t0, 0)
		return err
	}
	steps := []func() error{embedded, overWire}
	if wireFirst {
		steps[0], steps[1] = overWire, embedded
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return rp, err
		}
	}

	if cls.sgb != nil {
		rp.sgb = true
		if st := r.st.db.LastSGBStats(); st != nil {
			rp.stats = *st
		}
		if err := r.replayCore(ctx, cls.sgb, rec.k, cls.perUser, planText(plan), &rp, mark); err != nil {
			return rp, err
		}
	}

	// The wire layer: the frames the server sends for this result,
	// encoded and decoded again.
	t0 = time.Now()
	var buf bytes.Buffer
	if err := writeResult(&buf, res); err != nil {
		return rp, err
	}
	rp.resultBytes = buf.Len()
	for {
		m, err := wire.ReadMessage(&buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return rp, err
		}
		if _, ok := m.(*wire.Done); ok {
			break
		}
	}
	rp.codec = time.Since(t0)
	mark("wire.codec", t0, int64(rp.resultBytes))
	return rp, nil
}

// writeResult encodes a result as the server streams it: a RowHeader, one
// RowBatch per default batch of rows, and Done.
func writeResult(w io.Writer, res *engine.Result) error {
	if len(res.Columns) > 0 {
		if err := wire.WriteMessage(w, &wire.RowHeader{Columns: res.Columns}); err != nil {
			return err
		}
		batch := engine.DefaultBatchSize()
		for off := 0; off < len(res.Rows); off += batch {
			if err := wire.WriteMessage(w, &wire.RowBatch{Rows: res.Rows[off:min(off+batch, len(res.Rows))]}); err != nil {
				return err
			}
		}
	}
	return wire.WriteMessage(w, &wire.Done{RowsAffected: int64(res.RowsAffected), RowCount: int64(len(res.Rows))})
}

func planText(res *engine.Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		for _, v := range row {
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// replayCore calls the core entry point the plan names on the statement's
// points, read with DB.ScanFloats, with memory statistics around the call.
func (r *readsRun) replayCore(ctx context.Context, spec *sgbSpec, k int, perUser bool, plan string,
	rp *replayed, mark func(string, time.Time, int64)) error {
	var line string
	for _, l := range strings.Split(plan, "\n") {
		if strings.Contains(l, "SimilarityGroupBy") {
			line = l
			break
		}
	}
	alg, ok := algorithmIn(line)
	if !ok {
		return fmt.Errorf("no SGB algorithm in plan %q", plan)
	}
	cols := geom.NewCols(2)
	// lat, lon, user_id are columns 1, 2, 0 of the table.
	if _, err := r.st.db.ScanFloats(table, []int{1, 2, 0}, 0, func(_ int, c []float64) error {
		if !perUser || int(c[2]) == k {
			cols.AppendPoint(geom.Point{c[0], c[1]})
		}
		return nil
	}); err != nil {
		return err
	}
	opt := core.Options{Metric: spec.metric, Eps: spec.eps, Overlap: spec.overlap, Algorithm: alg}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	var err error
	switch {
	case strings.Contains(line, "Parallel SimilarityGroupBy"):
		_, err = core.SGBAnyParallelColsCtx(ctx, cols, opt, r.st.db.Parallelism())
	case spec.all:
		var g *core.AllGrouper
		if g, err = core.NewAllGrouper(opt); err == nil {
			if err = g.AddCols(cols); err == nil {
				_, err = g.Finish()
			}
		}
	default:
		if opt.Algorithm == core.BoundsChecking {
			opt.Algorithm = core.IndexBounds // as the engine does: SGB-Any has no bounds variant
		}
		var g *core.AnyGrouper
		if g, err = core.NewAnyGrouper(opt); err == nil {
			if err = g.AddCols(cols); err == nil {
				_, err = g.Finish()
			}
		}
	}
	rp.core = time.Since(t0)
	runtime.ReadMemStats(&ms1)
	rp.coreAlloc = ms1.TotalAlloc - ms0.TotalAlloc
	mark("core.sgb", t0, int64(rp.coreAlloc))
	return err
}

// algorithmIn finds the algorithm EXPLAIN prints in brackets on the SGB line.
func algorithmIn(line string) (core.Algorithm, bool) {
	for _, a := range []core.Algorithm{core.AllPairs, core.BoundsChecking, core.IndexBounds} {
		if strings.Contains(line, "["+a.String()+"]") {
			return a, true
		}
	}
	return 0, false
}

// finishReplay turns the replayed statements into per-layer metrics.
func (r *readsRun) finishReplay(out []replayed, first []core.Stats, rep *report) {
	var parse, plan, exec, codec, bytesOut, sgbMs, alloc, collect []float64
	self := make([][]float64, len(r.classes))
	for _, rp := range out {
		parse = append(parse, us(rp.parse.Nanoseconds()))
		plan = append(plan, us(rp.plan.Nanoseconds()))
		exec = append(exec, ms(rp.exec.Nanoseconds()))
		codec = append(codec, us(rp.codec.Nanoseconds()))
		bytesOut = append(bytesOut, float64(rp.resultBytes))
		self[rp.class] = append(self[rp.class], us((rp.rt - rp.parse - rp.exec - rp.codec).Nanoseconds()))
		if rp.sgb {
			sgbMs = append(sgbMs, ms(rp.core.Nanoseconds()))
			alloc = append(alloc, float64(rp.coreAlloc)/1e6)
			collect = append(collect, ms((rp.exec - rp.core).Nanoseconds()))
		}
	}
	n := fmt.Sprintf("n=%d replayed", len(out))
	rep.set("wire.result_bytes", median(bytesOut), n)
	rep.set("wire.codec_us", median(codec), n)
	// One median per statement class; the metric is their median, so no
	// class weighs by how often it was replayed. Over a statement of
	// hundreds of milliseconds the difference is within the exec time's
	// own jitter and may come out negative.
	var perClass []float64
	for ci, xs := range self {
		if len(xs) > 0 {
			perClass = append(perClass, median(xs))
			rep.info("server.self_us_p50."+r.classes[ci].name, "us", median(xs), fmt.Sprintf("n=%d replayed", len(xs)))
		}
	}
	rep.set("server.self_us_p50", median(perClass), fmt.Sprintf("median of %d per-class medians", len(perClass)))
	rep.set("engine.parse_us_p50", median(parse), n)
	rep.set("engine.plan_us_p50", median(plan), n)
	rep.set("engine.exec_ms_p50", median(exec), n)
	ns := fmt.Sprintf("n=%d SGB statements replayed", len(sgbMs))
	rep.set("engine.collect_emit_ms_p50", median(collect), ns)
	rep.set("core.sgb_ms_p50", median(sgbMs), ns)
	rep.set("core.alloc_mb", median(alloc), ns)

	var tot core.Stats
	for _, s := range first {
		tot.DistanceComps += s.DistanceComps
		tot.RectTests += s.RectTests
		tot.HullTests += s.HullTests
		tot.WindowQueries += s.WindowQueries
		tot.IndexUpdates += s.IndexUpdates
		tot.GroupsMerged += s.GroupsMerged
	}
	nr := fmt.Sprintf("summed over one statement of each class (%d)", len(first))
	rep.set("core.distance_comps", float64(tot.DistanceComps), nr)
	rep.set("core.rect_tests", float64(tot.RectTests), nr)
	rep.set("core.hull_tests", float64(tot.HullTests), nr)
	yield := 0.0
	if tot.DistanceComps > 0 {
		yield = float64(tot.GroupsMerged) / float64(tot.DistanceComps)
	}
	rep.set("core.merge_yield", yield, "groups_merged / distance_comps, "+nr)
	rep.set("rtree.window_queries", float64(tot.WindowQueries), nr)
	rep.set("rtree.index_updates", float64(tot.IndexUpdates), nr)
	rep.set("unionfind.groups_merged", float64(tot.GroupsMerged), nr)
}
