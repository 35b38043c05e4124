package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"sgb/internal/checkin"
	"sgb/internal/client"
	"sgb/internal/engine"
	"sgb/internal/server"
	"sgb/internal/stream"
)

// The ingest workload's two materialized views. The subscriber follows the
// first.
const (
	anyView = "checkins_any"
	allView = "checkins_all"
)

var viewSQL = []string{
	"CREATE MATERIALIZED VIEW " + anyView + " AS SELECT lat, lon FROM " + table +
		" GROUP BY lat, lon DISTANCE-TO-ANY L2 WITHIN 0.05",
	"CREATE MATERIALIZED VIEW " + allView + " AS SELECT lat, lon FROM " + table +
		" GROUP BY lat, lon DISTANCE-TO-ALL LINF WITHIN 0.05 ON-OVERLAP JOIN-ANY",
}

// ingestStack is a durable sgbd with its outside-in wrappers and the two
// client connections: the writer and the subscriber.
type ingestStack struct {
	*stack
	fs      *gatedFS
	dir     string
	writer  *client.Conn
	subConn *client.Conn
	closed  bool
}

// close closes the connections and the stack, once.
func (s *ingestStack) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	for _, c := range []*client.Conn{s.writer, s.subConn} {
		if c != nil {
			_ = c.Close()
		}
	}
	return s.stack.close()
}

// timing wraps the stream manager in the timing observer when tracing.
func timing(rec *recorder) func(*stream.Manager) server.CommitObserver {
	if rec == nil {
		return nil
	}
	return func(m *stream.Manager) server.CommitObserver { return &timedObserver{Manager: m, rec: rec} }
}

// setupIngest creates a fresh data dir with fsync always, loads and
// checkpoints the preload, analyzes it, creates the views (each bootstraps
// its grouper over the preload), starts the server and connects.
func setupIngest(ctx context.Context, cfg *config, dir string, pre []checkin.Checkin, rec *recorder) (*ingestStack, error) {
	s := &ingestStack{fs: newGatedFS(rec), dir: dir}
	st, err := boot(bootOptions{dataDir: dir, checkpointEvery: cfg.checkpointEvery, fs: s.fs, observer: timing(rec)})
	if err != nil {
		return nil, err
	}
	s.stack = st
	err = func() error {
		if err := st.exec("CREATE TABLE " + table + " (user_id INT, lat FLOAT, lon FLOAT)"); err != nil {
			return err
		}
		for i := 0; i < len(pre); i += loadChunk {
			if err := st.exec(insertSQL(pre[i:min(i+loadChunk, len(pre))])); err != nil {
				return err
			}
		}
		if err := st.store.Checkpoint(); err != nil {
			return err
		}
		if err := st.exec("ANALYZE " + table); err != nil {
			return err
		}
		for _, sql := range viewSQL {
			if err := st.exec(sql); err != nil {
				return err
			}
		}
		if err := st.serve(); err != nil {
			return err
		}
		if s.writer, err = st.connect(ctx); err != nil {
			return err
		}
		s.subConn, err = st.connect(ctx)
		return err
	}()
	if err != nil {
		_ = s.close()
		return nil, err
	}
	return s, nil
}

// insertRec is one INSERT of the open loop.
type insertRec struct {
	due, send, ack time.Time
	traced, failed bool
}

// received is one delta as the subscriber got it.
type received struct {
	seq uint64
	at  time.Time
}

// subscriber follows a view's delta stream on its own connection, applying
// every delta to a local state with stream.Apply.
type subscriber struct {
	conn     *client.Conn
	baseline uint64
	state    map[int64][]int64
	done     chan struct{}

	mu   sync.Mutex
	live []received // deltas after the snapshot image
	err  error
}

func subscribe(conn *client.Conn, view string) (*subscriber, error) {
	ss, err := conn.SubscribeOnce(view, 0)
	if err != nil {
		return nil, err
	}
	s := &subscriber{conn: conn, baseline: ss.Seq, state: make(map[int64][]int64), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for {
			d, err := ss.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				s.mu.Lock()
				s.err = err
				s.mu.Unlock()
				return
			}
			if d.Seq > s.baseline {
				s.mu.Lock()
				s.live = append(s.live, received{seq: d.Seq, at: time.Now()})
				s.mu.Unlock()
			}
			stream.Apply(s.state, d)
		}
	}()
	return s, nil
}

// stop ends the subscription and waits for the reader to exit.
func (s *subscriber) stop() error {
	if err := s.conn.Cancel(); err != nil {
		return err
	}
	<-s.done
	return s.err
}

// lastSeq is the seq of the newest delta received, 0 before any.
func (s *subscriber) lastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.live) == 0 {
		return 0
	}
	return s.live[len(s.live)-1].seq
}

// ingestRun carries the checks of one ingest run.
type ingestRun struct {
	cfg *config
	rep *report
}

// check counts one verification as attempted, and as failed when !ok.
func (r *ingestRun) check(ok bool, what string) {
	r.rep.attempted++
	if !ok {
		r.rep.failed++
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", what)
	}
}

// runIngest runs the ingest workload.
func runIngest(ctx context.Context, cfg *config) (*report, error) {
	stmts := int(cfg.rate*cfg.seconds) + 1
	rows := generate(cfg.n+stmts*cfg.rowsPerInsert, cfg.seed)
	pre, feed := rows[:cfg.n], rows[cfg.n:]
	rep := &report{}
	r := &ingestRun{cfg: cfg, rep: rep}
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
		rep.spans = rec
	}
	base := filepath.Join(cfg.workDir, fmt.Sprintf("ingest-%d", os.Getpid()))
	if err := os.RemoveAll(base); err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	var setups []float64
	var live *ingestStack
	for i := 0; i < cfg.setups; i++ {
		if live != nil {
			if err := live.close(); err != nil {
				return nil, err
			}
		}
		var err error
		runtime.GC() // as for the read workloads' set-ups
		t0 := time.Now()
		if live, err = setupIngest(ctx, cfg, filepath.Join(base, fmt.Sprintf("data%d", i)), pre, rec); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer live.close()
	rep.setup(setups)
	if rec != nil {
		// The last set-up's view creations.
		var boots []span
		for _, s := range named(rec.snapshot(), "stream.commit") {
			if s.Note == "create_view" {
				boots = append(boots, s)
			}
		}
		var total int64
		for _, s := range boots[max(len(boots)-len(viewSQL), 0):] {
			total += s.dur()
		}
		rep.set("stream.bootstrap_ms", ms(total), "observer time creating both views")
	}

	sub, err := subscribe(live.subConn, anyView)
	if err != nil {
		return nil, err
	}
	phaseStart := time.Now()
	walBytes0, walSyncs0, ckptBytes0, ckpts0 := live.fs.walBytes.Load(), live.fs.walSyncs.Load(), live.fs.ckptBytes.Load(), live.fs.ckptCount.Load()
	recs, used := r.measure(ctx, live, feed, rec)
	var okRecs []insertRec
	for _, ir := range recs {
		if !ir.failed {
			okRecs = append(okRecs, ir)
		}
	}
	acked := len(okRecs)
	walBytes, walSyncs := live.fs.walBytes.Load()-walBytes0, live.fs.walSyncs.Load()-walSyncs0
	ckptBytes, ckpts := live.fs.ckptBytes.Load()-ckptBytes0, live.fs.ckptCount.Load()-ckpts0
	if rec != nil {
		rec.on.Store(true)
	}

	// The subscriber must catch up with the live view.
	lastSeq := func() uint64 {
		for _, v := range live.streams.Views() {
			if v.Name == anyView {
				return v.LastSeq
			}
		}
		return 0
	}
	caught := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if got := sub.lastSeq(); got > 0 && got >= lastSeq() {
			caught = true
			break
		}
	}
	r.check(caught, "subscriber caught up with the live view")
	wantRows := cfg.n + acked*cfg.rowsPerInsert
	res, err := live.writer.Query(ctx, "SELECT count(*) FROM "+table)
	r.check(err == nil && len(res.Rows) == 1 && engine.Key(res.Rows[0]) == engine.Key(engine.Row{engine.NewInt(int64(wantRows))}),
		"row count over the wire equals preload plus acknowledged rows")
	liveState, err := live.streams.State(anyView)
	if err != nil {
		return nil, err
	}
	rebuilds := 0.0
	for _, v := range live.streams.Views() {
		rebuilds += float64(v.Rebuilds)
	}

	// A kill -9 image: the store is paused between calls, so the copy holds
	// exactly what a crash at this instant would leave on disk.
	image := filepath.Join(base, "image")
	live.fs.pause()
	imageBytes, err := copyDir(live.dir, image)
	live.fs.resume()
	if err != nil {
		return nil, err
	}
	if err := sub.stop(); err != nil {
		return nil, fmt.Errorf("subscriber: %w", err)
	}
	r.check(reflect.DeepEqual(sub.state, liveState), "subscriber state equals the live view")
	stmtSeqs, ok := r.checkSeqs(sub.live)
	r.check(ok && len(stmtSeqs) == acked, "delta seqs: none lost or duplicated, one statement per acknowledged INSERT")
	if err := live.close(); err != nil {
		return nil, err
	}

	recovery, replayed, obsMs, err := r.recover(base, image, wantRows, liveState, rec)
	if err != nil {
		return nil, err
	}

	// Metrics.
	var write []sample
	var late, lagged []float64
	var on, off []float64
	lastAck := phaseStart
	for _, ir := range recs {
		if ir.failed {
			continue
		}
		d := ms(ir.ack.Sub(ir.due).Nanoseconds())
		write = append(write, sample{ir.due, d})
		late = append(late, ms(ir.send.Sub(ir.due).Nanoseconds()))
		if ir.traced {
			on = append(on, d)
		} else {
			off = append(off, d)
		}
		if ir.ack.After(lastAck) {
			lastAck = ir.ack
		}
	}
	// Statement order matches WAL order: the k-th statement seq carrying
	// deltas is the k-th acknowledged INSERT.
	deltas := 0
	for k, s := range stmtSeqs {
		if k < len(okRecs) {
			lagged = append(lagged, ms(s.at.Sub(okRecs[k].due).Nanoseconds()))
		}
		deltas += s.n
	}
	phase := time.Duration(cfg.seconds * float64(time.Second))
	n := fmt.Sprintf("n=%d, median of %d windows", len(write), windows)
	rep.set("p50_ms", windowedPercentile(write, phaseStart, phase, 50), n+" (write_p50_ms: due to durable ack)")
	rep.info("p95_ms", "ms", windowedPercentile(write, phaseStart, phase, 95), n+" (write_p95_ms)")
	rep.set("ops_per_s", ratio(float64(acked), lastAck.Sub(phaseStart).Seconds()),
		fmt.Sprintf("%d INSERTs of %d rows acknowledged, open loop at %g/s", acked, cfg.rowsPerInsert, cfg.rate))
	rep.perOp(used, len(recs))
	ln := fmt.Sprintf("n=%d", len(lagged))
	rep.info("delta_lag_p50_ms", "ms", percentile(lagged, 50), ln+" due time to the subscriber holding every delta")
	rep.info("delta_lag_p95_ms", "ms", percentile(lagged, 95), ln)
	rep.info("recovery_s", "s", recovery, "OpenStore on the crash image to a started server")
	rep.set("stream.delta_lag_p50_ms", percentile(lagged, 50), ln)
	rep.set("stream.delta_lag_p95_ms", percentile(lagged, 95), ln)
	rep.set("store.recovery_s", recovery, "recovery_s")
	rep.set("stream.deltas_per_stmt", ratio(float64(deltas), float64(acked)), "deltas received / acknowledged INSERTs")
	rep.set("stream.rebuilds", rebuilds, "both views")
	rep.set("stream.recovery_ms", obsMs, "observer time inside OpenStore on the crash image")
	rep.set("loadgen.late_p95_ms", percentile(late, 95), fmt.Sprintf("n=%d", len(late)))
	user := float64(acked * cfg.rowsPerInsert * userBytes)
	rep.set("wal.fsyncs_per_stmt", ratio(float64(walSyncs), float64(acked)), "")
	rep.set("wal.write_bytes_per_user_byte", ratio(float64(walBytes), user), fmt.Sprintf("%d B written", walBytes))
	rep.set("store.checkpoints", float64(ckpts), "completed during the measured phase")
	rep.set("store.checkpoint_bytes_per_user_byte", ratio(float64(ckptBytes), user), fmt.Sprintf("%d B written", ckptBytes))
	rep.set("store.space_per_user_byte", ratio(float64(imageBytes), float64(wantRows*userBytes)), fmt.Sprintf("%d B on disk", imageBytes))
	rep.set("store.replay_records", float64(replayed), "")
	if rec != nil {
		pct := 0.0
		if m := median(off); m > 0 {
			pct = (median(on)/m - 1) * 100
		}
		rep.set("trace.overhead_pct", pct, fmt.Sprintf("p50 traced (n=%d) vs untraced (n=%d) INSERTs", len(on), len(off)))
		r.layers(rec, phaseStart, lastAck)
	}
	return rep, nil
}

// measure runs the open loop: INSERT i is due at start + i/rate whatever
// happened to INSERT i-1, and its latency runs from that due time.
func (r *ingestRun) measure(ctx context.Context, live *ingestStack, feed []checkin.Checkin, rec *recorder) ([]insertRec, cost) {
	cfg := r.cfg
	done := meter()
	interval := time.Duration(float64(time.Second) / cfg.rate)
	start := time.Now()
	end := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var recs []insertRec
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) || (i+1)*cfg.rowsPerInsert > len(feed) {
			break
		}
		sql := insertSQL(feed[i*cfg.rowsPerInsert : (i+1)*cfg.rowsPerInsert])
		time.Sleep(time.Until(due))
		ir := insertRec{due: due, traced: rec != nil && i%2 == 0}
		if rec != nil {
			rec.on.Store(ir.traced)
		}
		qctx, cancel := context.WithTimeout(ctx, stmtTimeout)
		ir.send = time.Now()
		res, err := live.writer.Query(qctx, sql)
		ir.ack = time.Now()
		cancel()
		if err == nil && cfg.corrupt != nil && int64(i+1)%cfg.corruptEvery == 0 {
			cfg.corrupt(res)
		}
		ir.failed = err != nil || res.RowsAffected != cfg.rowsPerInsert
		r.rep.attempted++
		if ir.failed {
			r.rep.failed++
		}
		if ir.traced {
			rec.add(span{Stmt: int64(i + 1), Name: "client.insert", Start: rec.ns(ir.send), End: rec.ns(ir.ack)})
		}
		recs = append(recs, ir)
	}
	return recs, done()
}

// stmtDeltas is the deltas one statement produced, as received.
type stmtDeltas struct {
	seq uint64
	n   int
	at  time.Time // when the last of them arrived
}

// checkSeqs groups the live deltas by statement and reports whether their
// seqs are strictly increasing with each statement's delta indexes running
// 0, 1, 2, ... without a gap.
func (r *ingestRun) checkSeqs(live []received) ([]stmtDeltas, bool) {
	var out []stmtDeltas
	var prev uint64
	for _, d := range live {
		if d.seq <= prev {
			return out, false
		}
		prev = d.seq
		st, idx := stream.StmtSeq(d.seq), stream.DeltaIndex(d.seq)
		if len(out) == 0 || out[len(out)-1].seq != st {
			if idx != 0 {
				return out, false
			}
			out = append(out, stmtDeltas{seq: st})
		} else if idx != uint64(out[len(out)-1].n) {
			return out, false
		}
		out[len(out)-1].n++
		out[len(out)-1].at = d.at
	}
	return out, true
}

// recover opens a copy of the crash image as sgbd boots, OpenStore through a
// started server, and checks the recovered table and view against the live
// ones. It returns the recovery time, the WAL records replayed, and the
// observer's time inside OpenStore.
func (r *ingestRun) recover(base, image string, wantRows int,
	liveState map[int64][]int64, rec *recorder) (secs float64, replayed int, obsMs float64, err error) {
	dir := filepath.Join(base, "recover")
	if _, err := copyDir(image, dir); err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	st, err := boot(bootOptions{dataDir: dir, checkpointEvery: r.cfg.checkpointEvery, observer: timing(rec)})
	if err == nil {
		if err = st.serve(); err != nil {
			_ = st.close()
		}
	}
	if err != nil {
		return 0, 0, 0, fmt.Errorf("recovery: %w", err)
	}
	secs = time.Since(t0).Seconds()
	replayed = st.store.ReplayedRecords()
	if rec != nil {
		var total int64
		for _, s := range rec.snapshot() {
			if (s.Name == "stream.bootstrap" || s.Name == "stream.commit") && s.Start >= rec.ns(t0) {
				total += s.dur()
			}
		}
		obsMs = ms(total)
	}
	res, qerr := st.db.Exec("SELECT count(*) FROM " + table)
	r.check(qerr == nil && len(res.Rows) == 1 &&
		engine.Key(res.Rows[0]) == engine.Key(engine.Row{engine.NewInt(int64(wantRows))}),
		"recovered row count equals preload plus acknowledged rows")
	state, serr := st.streams.State(anyView)
	r.check(serr == nil && reflect.DeepEqual(state, liveState), "recovered view state equals the live view")
	if err := st.close(); err != nil {
		return 0, 0, 0, err
	}
	return secs, replayed, obsMs, nil
}

// layers derives the WAL, stream, store and engine write metrics from the
// spans of the measured phase.
func (r *ingestRun) layers(rec *recorder, from, to time.Time) {
	rec.attribute("client.insert", map[string]bool{"wal.write": true, "wal.fsync": true, "stream.commit": true})
	spans := rec.snapshot()
	lo, hi := rec.ns(from), rec.ns(to)
	durs := func(name, note string, us bool) []float64 {
		var out []float64
		for _, s := range spans {
			if s.Name == name && s.Note == note && s.Start >= lo && s.End <= hi {
				d := float64(s.dur())
				if us {
					out = append(out, d/1e3)
				} else {
					out = append(out, d/1e6)
				}
			}
		}
		return out
	}
	self := selfTimes(spans, "client.insert")
	for i := range self {
		self[i] /= 1e3
	}
	r.rep.set("engine.write_self_us_p50", median(self), fmt.Sprintf("INSERT round trip less its wal and stream spans; n=%d", len(self)))
	commits := durs("stream.commit", "insert", true)
	cn := fmt.Sprintf("n=%d", len(commits))
	r.rep.set("stream.commit_us_p50", percentile(commits, 50), cn)
	r.rep.set("stream.commit_us_p95", percentile(commits, 95), cn)
	fsyncs := durs("wal.fsync", "", true)
	fn := fmt.Sprintf("n=%d", len(fsyncs))
	r.rep.set("wal.fsync_us_p50", percentile(fsyncs, 50), fn)
	r.rep.set("wal.fsync_us_p95", percentile(fsyncs, 95), fn)
	ckpts := durs("store.checkpoint", "", false)
	r.rep.set("store.checkpoint_ms_p50", median(ckpts), fmt.Sprintf("temp file create to rename; n=%d", len(ckpts)))
}

// copyDir copies the regular files of src into a new dst and returns the
// bytes copied.
func copyDir(src, dst string) (int64, error) {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return 0, err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return 0, err
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name() < ents[j].Name() })
	var total int64
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			return 0, err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return 0, err
		}
		total += int64(len(b))
	}
	return total, nil
}
