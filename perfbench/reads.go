package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sgb/internal/checkin"
	"sgb/internal/client"
	"sgb/internal/core"
	"sgb/internal/engine"
	"sgb/internal/geom"
)

// sgbSpec describes a statement's similarity grouping, for calling the core
// entry point directly in the traced replay.
type sgbSpec struct {
	all     bool
	metric  geom.Metric
	eps     float64
	overlap core.Overlap
}

// readClass is one statement class of a read mix.
type readClass struct {
	name   string
	weight int
	// sql renders the statement; k is a user id (lookups) or unused.
	sql func(k int) string
	// prepare computes what check needs at setup: reference answers from a
	// serial embedded session, or oracle values the checker derives itself.
	prepare func(c *checker, sess *engine.Session, k int) error
	check   func(c *checker, k int, res *engine.Result) verdict
	sgb     *sgbSpec
	// perUser draws k from the user ids for every statement.
	perUser bool
}

// verdict is one answer check.
type verdict struct {
	ok bool
	// floats counts float aggregate values compared against the exactly
	// rounded math/big reference; inexact counts those not bit-identical.
	floats, inexact int
}

// checker holds everything the answer checks compare against.
type checker struct {
	rows   []checkin.Checkin
	byUser map[int][]checkin.Checkin
	users  []int
	exact  map[int]*exactAgg

	mu    sync.Mutex
	refs  map[string]*engine.Result
	sizes map[string][]int

	// corrupt, when set, alters every nth answer before it is checked: the
	// smoke test's proof that a wrong answer is counted.
	corrupt      func(*engine.Result)
	corruptEvery int64
	checked      atomic.Int64
}

func newChecker(rows []checkin.Checkin) *checker {
	c := &checker{rows: rows, byUser: make(map[int][]checkin.Checkin),
		exact: exactByUser(rows), refs: make(map[string]*engine.Result), sizes: make(map[string][]int)}
	for _, r := range rows {
		c.byUser[r.UserID] = append(c.byUser[r.UserID], r)
	}
	for u := range c.byUser {
		c.users = append(c.users, u)
	}
	sort.Ints(c.users)
	return c
}

// run checks res with cls, applying the injected corruption first when set.
func (c *checker) run(cls *readClass, k int, res *engine.Result) verdict {
	if c.corrupt != nil && c.checked.Add(1)%c.corruptEvery == 0 {
		c.corrupt(res)
	}
	return cls.check(c, k, res)
}

// refAnswer stores the serial embedded answer to sql.
func (c *checker) refAnswer(sess *engine.Session, sql string) error {
	res, err := sess.Exec(sql)
	if err != nil {
		return fmt.Errorf("reference answer: %w", err)
	}
	c.mu.Lock()
	c.refs[sql] = res
	c.mu.Unlock()
	return nil
}

func (c *checker) ref(sql string) *engine.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.refs[sql]
}

// rowKeys returns the rows' canonical keys, sorted: results are compared as
// multisets because SQL without ORDER BY fixes no row order.
func rowKeys(rows []engine.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = engine.Key(r)
	}
	sort.Strings(out)
	return out
}

func sameRows(a, b []engine.Row) bool {
	if len(a) != len(b) {
		return false
	}
	ka, kb := rowKeys(a), rowKeys(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// checkRef compares res with the serial embedded answer to the same SQL.
func checkRef(sql string) func(c *checker, k int, res *engine.Result) verdict {
	return func(c *checker, _ int, res *engine.Result) verdict {
		ref := c.ref(sql)
		return verdict{ok: ref != nil && sameRows(res.Rows, ref.Rows)}
	}
}

// checkSizes compares the count(*) column of an SGB-Any answer with the
// component sizes of the ε-graph.
func checkSizes(key string, res *engine.Result, c *checker) verdict {
	c.mu.Lock()
	want, ok := c.sizes[key]
	c.mu.Unlock()
	if !ok || len(res.Rows) != len(want) {
		return verdict{}
	}
	got := make([]int, len(res.Rows))
	for i, r := range res.Rows {
		if len(r) != 1 {
			return verdict{}
		}
		f, err := r[0].AsFloat()
		if err != nil {
			return verdict{}
		}
		got[i] = int(f)
	}
	sort.Ints(got)
	for i := range got {
		if got[i] != want[i] {
			return verdict{}
		}
	}
	return verdict{ok: true}
}

// floatCheck compares one float aggregate value with its exactly rounded
// reference, folding the outcome into v.
func floatCheck(v *verdict, val engine.Value, want float64) {
	got, err := val.AsFloat()
	ok, identical := closeTo(got, want)
	v.floats++
	if !identical {
		v.inexact++
	}
	if err != nil || !ok {
		v.ok = false
	}
}

const (
	sqlAnyAll = "SELECT count(*) FROM " + table + " GROUP BY lat, lon DISTANCE-TO-ANY L2 WITHIN %g"
	sqlByUser = "SELECT user_id, count(*), sum(lat), avg(lon) FROM " + table + " GROUP BY user_id"
)

// sgbAnyClass is SGB-Any L2 over the whole table, checked against the
// ε-graph's components.
func sgbAnyClass(name string, weight int, eps float64) readClass {
	sql := fmt.Sprintf(sqlAnyAll, eps)
	return readClass{
		name: name, weight: weight,
		sql: func(int) string { return sql },
		prepare: func(c *checker, _ *engine.Session, _ int) error {
			sizes := componentSizes(pointsOf(c.rows), eps)
			c.mu.Lock()
			c.sizes[sql] = sizes
			c.mu.Unlock()
			return nil
		},
		check: func(c *checker, _ int, res *engine.Result) verdict { return checkSizes(sql, res, c) },
		sgb:   &sgbSpec{metric: geom.L2, eps: eps},
	}
}

// sgbAllClass is SGB-All over the whole table, checked against the serial
// embedded answer.
func sgbAllClass(name string, weight int, metric geom.Metric, eps float64, overlap core.Overlap) readClass {
	sql := fmt.Sprintf("SELECT count(*) FROM %s GROUP BY lat, lon DISTANCE-TO-ALL %s WITHIN %g ON-OVERLAP %s",
		table, metric, eps, overlap)
	return readClass{
		name: name, weight: weight,
		sql:     func(int) string { return sql },
		prepare: func(c *checker, sess *engine.Session, _ int) error { return c.refAnswer(sess, sql) },
		check:   checkRef(sql),
		sgb:     &sgbSpec{all: true, metric: metric, eps: eps, overlap: overlap},
	}
}

// byUserClass is GROUP BY user_id with count/sum/avg: counts must equal the
// serial answer, float aggregates the exactly rounded sums and means.
func byUserClass(weight int) readClass {
	return readClass{
		name: "group_by_user", weight: weight,
		sql:     func(int) string { return sqlByUser },
		prepare: func(c *checker, sess *engine.Session, _ int) error { return c.refAnswer(sess, sqlByUser) },
		check: func(c *checker, _ int, res *engine.Result) verdict {
			ref := c.ref(sqlByUser)
			if ref == nil || len(res.Rows) != len(ref.Rows) {
				return verdict{}
			}
			counts := make(map[string]string, len(ref.Rows))
			for _, r := range ref.Rows {
				counts[engine.Key(r[:1])] = engine.Key(r[1:2])
			}
			v := verdict{ok: true}
			for _, r := range res.Rows {
				if len(r) != 4 || counts[engine.Key(r[:1])] != engine.Key(r[1:2]) {
					return verdict{}
				}
				u, err := r[0].AsFloat()
				e := c.exact[int(u)]
				if err != nil || e == nil {
					return verdict{}
				}
				floatCheck(&v, r[2], e.sumLat)
				floatCheck(&v, r[3], e.avgLon)
			}
			return v
		},
	}
}

// analyticsClasses is the analytics mix. In ascending latency the
// cumulative shares are group_by_user, JOIN-ANY and ELIMINATE 0.4, SGB-Any
// ε 0.05 0.7, FORM-NEW-GROUP 0.8 and SGB-Any ε 0.25 1.0, so the median
// falls a third of the way into the SGB-Any ε 0.05 block and the 95th
// percentile three quarters of the way into the SGB-Any ε 0.25 block: each
// sits inside one class, away from a boundary between two.
func analyticsClasses() []readClass {
	return []readClass{
		sgbAnyClass("sgb_any_l2_0.05", 3, 0.05),
		sgbAnyClass("sgb_any_l2_0.25", 2, 0.25),
		sgbAllClass("sgb_all_l2_join_any_0.25", 1, geom.L2, 0.25, core.JoinAny),
		sgbAllClass("sgb_all_linf_eliminate_0.25", 1, geom.LInf, 0.25, core.Eliminate),
		sgbAllClass("sgb_all_linf_form_new_group_0.25", 1, geom.LInf, 0.25, core.FormNewGroup),
		byUserClass(2),
	}
}

// lookupsClasses is the lookups mix: three per-user statements on the
// user_id index, about 20 rows each.
func lookupsClasses() []readClass {
	aggSQL := func(k int) string {
		return fmt.Sprintf("SELECT count(*), sum(lat) FROM %s WHERE user_id = %d", table, k)
	}
	rowsSQL := func(k int) string { return fmt.Sprintf("SELECT lat, lon FROM %s WHERE user_id = %d", table, k) }
	anySQL := func(k int) string {
		return fmt.Sprintf("SELECT count(*) FROM %s WHERE user_id = %d GROUP BY lat, lon DISTANCE-TO-ANY L2 WITHIN 0.25", table, k)
	}
	return []readClass{
		{
			name: "user_count_sum", weight: 1, perUser: true, sql: aggSQL,
			prepare: func(c *checker, sess *engine.Session, k int) error { return c.refAnswer(sess, aggSQL(k)) },
			check: func(c *checker, k int, res *engine.Result) verdict {
				ref := c.ref(aggSQL(k))
				if ref == nil || len(res.Rows) != 1 || len(ref.Rows) != 1 || len(res.Rows[0]) != 2 ||
					engine.Key(res.Rows[0][:1]) != engine.Key(ref.Rows[0][:1]) {
					return verdict{}
				}
				v := verdict{ok: true}
				floatCheck(&v, res.Rows[0][1], c.exact[k].sumLat)
				return v
			},
		},
		{
			name: "user_rows", weight: 1, perUser: true, sql: rowsSQL,
			prepare: func(c *checker, sess *engine.Session, k int) error { return c.refAnswer(sess, rowsSQL(k)) },
			check: func(c *checker, k int, res *engine.Result) verdict {
				return checkRef(rowsSQL(k))(c, k, res)
			},
		},
		{
			name: "user_sgb_any_l2_0.25", weight: 1, perUser: true, sql: anySQL,
			prepare: func(c *checker, _ *engine.Session, k int) error {
				sizes := componentSizes(pointsOf(c.byUser[k]), 0.25)
				c.mu.Lock()
				c.sizes[anySQL(k)] = sizes
				c.mu.Unlock()
				return nil
			},
			check: func(c *checker, k int, res *engine.Result) verdict { return checkSizes(anySQL(k), res, c) },
			sgb:   &sgbSpec{metric: geom.L2, eps: 0.25},
		},
	}
}

// cycle expands class weights into one interleaved statement cycle (smooth
// weighted round robin), so a client never runs a class's statements back
// to back when the weights allow otherwise.
func cycle(classes []readClass) []int {
	total := 0
	for _, c := range classes {
		total += c.weight
	}
	cur := make([]int, len(classes))
	out := make([]int, 0, total)
	for len(out) < total {
		best := 0
		for i, c := range classes {
			cur[i] += c.weight
			if cur[i] > cur[best] {
				best = i
			}
		}
		cur[best] -= total
		out = append(out, best)
	}
	return out
}

// stmtRec is one measured statement.
type stmtRec struct {
	class, k   int
	start, end time.Time
	traced     bool
	stmt, root int64 // statement and root span ids when traced
	// traceCost is the time the client loop spent recording the statement's
	// span, which delays its next statement.
	traceCost time.Duration
	failed    bool
	verdict   verdict
}

// readsRun is a read workload's per-run state.
type readsRun struct {
	cfg     *config
	classes []readClass
	st      *stack
	conns   []*client.Conn
	chk     *checker
	rec     *recorder
}

// setupReads builds the read stack: load, (index,) ANALYZE, server, clients.
func setupReads(ctx context.Context, cfg *config, rows []checkin.Checkin, index bool) (*stack, []*client.Conn, error) {
	st, err := boot(bootOptions{})
	if err != nil {
		return nil, nil, err
	}
	var conns []*client.Conn
	err = func() error {
		if err := st.exec("CREATE TABLE " + table + " (user_id INT, lat FLOAT, lon FLOAT)"); err != nil {
			return err
		}
		for i := 0; i < len(rows); i += loadChunk {
			if err := st.exec(insertSQL(rows[i:min(i+loadChunk, len(rows))])); err != nil {
				return err
			}
		}
		if index {
			if err := st.exec("CREATE INDEX checkins_user ON " + table + " (user_id)"); err != nil {
				return err
			}
		}
		if err := st.exec("ANALYZE " + table); err != nil {
			return err
		}
		if err := st.serve(); err != nil {
			return err
		}
		for i := 0; i < cfg.clients; i++ {
			c, err := st.connect(ctx)
			if err != nil {
				return err
			}
			conns = append(conns, c)
		}
		return nil
	}()
	if err != nil {
		closeAll(conns)
		_ = st.close()
		return nil, nil, err
	}
	return st, conns, nil
}

func closeAll(conns []*client.Conn) {
	for _, c := range conns {
		_ = c.Close()
	}
}

// runReads runs the analytics or lookups workload.
func runReads(ctx context.Context, cfg *config) (*report, error) {
	classes := analyticsClasses()
	index := false
	if cfg.workload == "lookups" {
		classes, index = lookupsClasses(), true
	}
	rows := generate(cfg.n, cfg.seed)
	rep := &report{}

	// Set-up, several times; the last stack is the one measured.
	var setups []float64
	var st *stack
	var conns []*client.Conn
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			closeAll(conns)
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		// The previous stack's garbage is collected before the clock
		// starts, so no set-up pays for another's.
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, conns, err = setupReads(ctx, cfg, rows, index); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		closeAll(conns)
		_ = st.close()
	}()
	rep.setup(setups)

	// Reference answers, serially and embedded, before anything is measured.
	chk := newChecker(rows)
	chk.corrupt, chk.corruptEvery = cfg.corrupt, cfg.corruptEvery
	sess := st.db.NewSession()
	sess.SetParallelism(1)
	for _, cls := range classes {
		keys := []int{0}
		if cls.perUser {
			keys = chk.users
		}
		for _, k := range keys {
			if err := cls.prepare(chk, sess, k); err != nil {
				return nil, err
			}
		}
	}

	run := &readsRun{cfg: cfg, classes: classes, st: st, conns: conns, chk: chk}
	if cfg.traced {
		run.rec = newRecorder()
	}
	recs, start, used := run.measure(ctx)
	rep.reads(cfg, classes, recs, start, used)
	if cfg.traced {
		if err := run.replay(ctx, recs, rep); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		rep.traceOverhead(recs)
		rep.spans = run.rec
	}
	return rep, nil
}

// measure runs the closed loop: each client sends its next statement when
// the previous answer is back and checked, until cfg.seconds have passed.
func (r *readsRun) measure(ctx context.Context) ([]stmtRec, time.Time, cost) {
	cyc := cycle(r.classes)
	done := meter()
	start := time.Now()
	deadline := start.Add(time.Duration(r.cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	var stmtIDs atomic.Int64
	perClient := make([][]stmtRec, len(r.conns))
	for ci, conn := range r.conns {
		wg.Add(1)
		go func(ci int, conn *client.Conn) {
			defer wg.Done()
			// Each client draws its own user ids, fixed by the seed.
			rng := rand.New(rand.NewSource(r.cfg.seed*1000 + int64(ci)))
			off := ci * len(cyc) / len(r.conns)
			var out []stmtRec
			for i := 0; time.Now().Before(deadline); i++ {
				cls := &r.classes[cyc[(off+i)%len(cyc)]]
				rec := stmtRec{class: cyc[(off+i)%len(cyc)]}
				if cls.perUser {
					rec.k = r.chk.users[rng.Intn(len(r.chk.users))]
				}
				rec.traced = r.rec != nil
				sql := cls.sql(rec.k)
				qctx, cancel := context.WithTimeout(ctx, stmtTimeout)
				rec.start = time.Now()
				res, err := conn.Query(qctx, sql)
				rec.end = time.Now()
				cancel()
				if rec.traced {
					rec.stmt = stmtIDs.Add(1)
					rec.root = r.rec.add(span{Stmt: rec.stmt, Name: "client.query", Note: cls.name,
						Start: r.rec.ns(rec.start), End: r.rec.ns(rec.end)})
					rec.traceCost = time.Since(rec.end)
				}
				if err != nil {
					rec.failed = true
				} else {
					rec.verdict = r.chk.run(cls, rec.k, res)
				}
				out = append(out, rec)
			}
			perClient[ci] = out
		}(ci, conn)
	}
	wg.Wait()
	used := done()
	var all []stmtRec
	for _, recs := range perClient {
		all = append(all, recs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start.Before(all[j].start) })
	return all, start, used
}

// reads turns the measured statements into the end-to-end metrics.
func (r *report) reads(cfg *config, classes []readClass, recs []stmtRec, start time.Time, used cost) {
	lat := make([]sample, 0, len(recs))
	perClass := make([][]float64, len(classes))
	var inexact []int
	floats, completed := 0, 0
	end := start
	for _, rec := range recs {
		d := ms(rec.end.Sub(rec.start).Nanoseconds())
		lat = append(lat, sample{rec.start, d})
		perClass[rec.class] = append(perClass[rec.class], d)
		r.attempted++
		if rec.failed || !rec.verdict.ok {
			r.failed++
		}
		if !rec.failed {
			completed++
		}
		if rec.end.After(end) {
			end = rec.end
		}
		if rec.verdict.floats > 0 {
			inexact = append(inexact, rec.verdict.inexact)
			floats = rec.verdict.floats
		}
	}
	phase := time.Duration(cfg.seconds * float64(time.Second))
	n := fmt.Sprintf("n=%d, median of %d windows", len(lat), windows)
	r.set("p50_ms", windowedPercentile(lat, start, phase, 50), n+" (query_p50_ms)")
	r.info("p95_ms", "ms", windowedPercentile(lat, start, phase, 95), n+" (query_p95_ms)")
	r.set("ops_per_s", ratio(float64(completed), end.Sub(start).Seconds()),
		fmt.Sprintf("%d statements, %d clients, closed loop (query_per_s)", completed, cfg.clients))
	r.perOp(used, len(recs))
	for i, c := range classes {
		r.info("class."+c.name+".p50_ms", "ms", percentile(perClass[i], 50), fmt.Sprintf("n=%d", len(perClass[i])))
	}
	r.set("engine.agg_inexact_results", intMedian(inexact),
		fmt.Sprintf("median per checked result, of %d float aggregates; n=%d results", floats, len(inexact)))
}

// traceOverhead is the client loop's time recording spans as a share of
// the statements' round trips. A traced read run records nothing else while
// it measures: the parse, plan, exec, core and wire spans come from the
// replay after the measured phase, so the wire path is otherwise the
// untraced one.
func (r *report) traceOverhead(recs []stmtRec) {
	var rt, cost time.Duration
	for _, rec := range recs {
		rt += rec.end.Sub(rec.start)
		cost += rec.traceCost
	}
	r.set("trace.overhead_pct", ratio(float64(cost), float64(rt))*100,
		fmt.Sprintf("span recording / round trips, n=%d statements", len(recs)))
}
