// Command perfbench is sgbd's end-to-end benchmark. It boots sgbd in this
// process, wired as cmd/sgbd wires it, drives it over the wire protocol
// through internal/client, checks every answer, and prints each metric by
// name with its unit. The last line of standard output is one JSON object:
// the end-to-end metrics, or with -trace 1 the per-layer metrics of a traced
// run. See README.md for the workloads and what each metric should move.
//
//	perfbench -workload analytics|lookups|ingest -seed N -seconds S -trace 0|1
//
// Run it from the repository root through run.sh, which builds it first.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sgb/internal/engine"
)

// stmtTimeout bounds one statement, so a hang fails the run instead of
// stalling it.
const stmtTimeout = 60 * time.Second

// runLimit bounds a whole run, below the 180 s a run may take.
const runLimit = 170 * time.Second

// config is one run's parameters: the command-line arguments plus the
// per-workload sizes from workloadConfig.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	workDir  string

	n       int // table rows (ingest: preloaded rows)
	clients int // read connections in the closed loop
	setups  int // set-ups per run; setup_s is their median

	rate            float64       // ingest: INSERT statements per second, open loop
	rowsPerInsert   int           // ingest
	checkpointEvery time.Duration // ingest

	// corrupt, applied to every corruptEvery-th answer before its check, is
	// the smoke test's deliberately wrong answer.
	corrupt      func(*engine.Result)
	corruptEvery int64
}

// workloadConfig returns the sizes each workload runs at.
func workloadConfig(name string) (*config, error) {
	switch name {
	case "analytics", "lookups":
		return &config{workload: name, n: 20000, clients: 2, setups: 9}, nil
	case "ingest":
		return &config{workload: name, n: 20000, setups: 5, rate: 50, rowsPerInsert: 10,
			checkpointEvery: 2 * time.Second}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want analytics, lookups or ingest)", name)
}

func main() {
	workload := flag.String("workload", "", "analytics | lookups | ingest")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: traced run, reporting per-layer metrics")
	flag.Parse()

	cfg, err := workloadConfig(*workload)
	if err != nil {
		fail(err)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("want -seconds > 0 and -trace 0 or 1"))
	}
	cfg.seed, cfg.seconds, cfg.traced = *seed, *seconds, *trace == 1
	// Data dirs and span files go under the checkout's build directory.
	cfg.workDir = filepath.Join(".bench_build", "perfbench-work")

	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	go func() {
		<-ctx.Done()
		if ctx.Err() == context.DeadlineExceeded {
			// A stuck run must still end within its time.
			fmt.Fprintln(os.Stderr, "perfbench: run exceeded", runLimit)
			os.Exit(3)
		}
	}()
	rep, err := run(ctx, cfg)
	if err != nil {
		fail(err)
	}
	if err := rep.print(os.Stdout, cfg); err != nil {
		fail(err)
	}
	if rep.failed > 0 {
		// The result line is printed; a failed check still fails the run.
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d answer checks failed\n", rep.failed, rep.attempted)
		os.Exit(4)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run runs one workload and returns its report.
func run(ctx context.Context, cfg *config) (*report, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	var rep *report
	var err error
	switch cfg.workload {
	case "ingest":
		rep, err = runIngest(ctx, cfg)
	default:
		rep, err = runReads(ctx, cfg)
	}
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		rep.set("process.peak_rss_mb", peakRSSMB(), "VmHWM")
		if rep.spans != nil {
			path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
			if err := rep.spans.write(path); err != nil {
				return nil, err
			}
			rep.spansPath = path
		}
	}
	return rep, nil
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	note       string
}

// e2eMetrics are the gated end-to-end metrics every workload reports, with
// tracing off. p50_ms is the client-observed latency of the workload's
// statements: the read round trip (query_p50_ms) on analytics and lookups,
// and the INSERT's due time to its durable ack (write_p50_ms) on ingest.
// p95_ms is printed beside it but not gated: on a shared 2-vCPU host its
// spread between runs exceeded the largest bound a metric may have.
var e2eMetrics = []metric{
	{name: "setup_s", unit: "s"},
	{name: "p50_ms", unit: "ms"},
	{name: "ops_per_s", unit: "1/s"},
	{name: "alloc_mb_per_op", unit: "MB"},
}

// layerMetrics are the per-layer metrics of a traced run. A layer a
// workload does not use reports 0.
var layerMetrics = []metric{
	{name: "wire.result_bytes", unit: "bytes"},
	{name: "wire.codec_us", unit: "us"},
	{name: "server.self_us_p50", unit: "us"},
	{name: "engine.parse_us_p50", unit: "us"},
	{name: "engine.plan_us_p50", unit: "us"},
	{name: "engine.exec_ms_p50", unit: "ms"},
	{name: "engine.collect_emit_ms_p50", unit: "ms"},
	{name: "engine.write_self_us_p50", unit: "us"},
	{name: "engine.agg_inexact_results", unit: "count"},
	{name: "core.sgb_ms_p50", unit: "ms"},
	{name: "core.alloc_mb", unit: "MB"},
	{name: "core.distance_comps", unit: "count"},
	{name: "core.rect_tests", unit: "count"},
	{name: "core.hull_tests", unit: "count"},
	{name: "core.merge_yield", unit: "ratio"},
	{name: "rtree.window_queries", unit: "count"},
	{name: "rtree.index_updates", unit: "count"},
	{name: "unionfind.groups_merged", unit: "count"},
	{name: "stream.commit_us_p50", unit: "us"},
	{name: "stream.commit_us_p95", unit: "us"},
	{name: "stream.deltas_per_stmt", unit: "count"},
	{name: "stream.rebuilds", unit: "count"},
	{name: "stream.bootstrap_ms", unit: "ms"},
	{name: "stream.recovery_ms", unit: "ms"},
	{name: "stream.delta_lag_p50_ms", unit: "ms"},
	{name: "stream.delta_lag_p95_ms", unit: "ms"},
	{name: "wal.fsync_us_p50", unit: "us"},
	{name: "wal.fsync_us_p95", unit: "us"},
	{name: "wal.fsyncs_per_stmt", unit: "count"},
	{name: "wal.write_bytes_per_user_byte", unit: "ratio"},
	{name: "store.checkpoints", unit: "count"},
	{name: "store.checkpoint_ms_p50", unit: "ms"},
	{name: "store.checkpoint_bytes_per_user_byte", unit: "ratio"},
	{name: "store.space_per_user_byte", unit: "ratio"},
	{name: "store.replay_records", unit: "count"},
	{name: "store.recovery_s", unit: "s"},
	{name: "loadgen.late_p95_ms", unit: "ms"},
	{name: "process.peak_rss_mb", unit: "MB"},
	{name: "process.minor_faults_per_op", unit: "count"},
	{name: "trace.overhead_pct", unit: "%"},
}

// report is one run's outcome.
type report struct {
	attempted, failed int
	values            map[string]metric
	// extra are printed for people, not gated: p95_ms, error_rate,
	// per-class latencies and the ingest-only figures.
	extra     []metric
	spans     *recorder
	spansPath string
}

func (r *report) set(name string, value float64, note string) {
	if r.values == nil {
		r.values = make(map[string]metric)
	}
	r.values[name] = metric{name: name, value: value, note: note}
}

func (r *report) info(name, unit string, value float64, note string) {
	r.extra = append(r.extra, metric{name: name, unit: unit, value: value, note: note})
}

// perOp records the measured phase's cost per statement.
func (r *report) perOp(used cost, stmts int) {
	n := float64(max(stmts, 1))
	r.set("alloc_mb_per_op", float64(used.alloc)/1e6/n, "TotalAlloc over the measured phase / statements")
	r.info("cpu_ms_per_op", "ms", ms(used.cpu.Nanoseconds())/n, "process CPU time over the measured phase / statements")
	r.set("process.minor_faults_per_op", float64(used.faults)/n, "minor page faults over the measured phase / statements")
}

func (r *report) setup(samples []float64) {
	lo, hi := percentile(samples, 0), percentile(samples, 100)
	r.set("setup_s", median(samples), fmt.Sprintf("median of %d set-ups, %.3g to %.3g s", len(samples), lo, hi))
}

// print writes every metric as a line, then the JSON result line.
func (r *report) print(w io.Writer, cfg *config) error {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v GOMAXPROCS=%d nproc=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.traced, runtime.GOMAXPROCS(0), runtime.NumCPU())
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	r.info("error_rate", "ratio", errRate, fmt.Sprintf("%d of %d attempted", r.failed, r.attempted))
	line := func(m metric, unit string) {
		fmt.Fprintf(w, "  %-38s %14s %-6s %s\n", m.name, strconv.FormatFloat(m.value, 'g', 6, 64), unit, m.note)
	}
	fmt.Fprintln(w, "end to end:")
	for _, m := range e2eMetrics {
		line(r.values[m.name], m.unit)
	}
	for _, m := range r.extra {
		line(m, m.unit)
	}
	chosen := e2eMetrics
	if cfg.traced {
		chosen = layerMetrics
		fmt.Fprintln(w, "per layer:")
		for _, m := range layerMetrics {
			v, ok := r.values[m.name]
			if !ok {
				v = metric{name: m.name, note: "not used by this workload"}
			}
			line(v, m.unit)
		}
		if r.spansPath != "" {
			fmt.Fprintln(w, "spans:", r.spansPath)
		}
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range chosen {
		out.Metrics[m.name] = jsonMetric{Value: r.values[m.name].value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
