// Command sgbcli is an interactive SQL shell for the similarity group-by
// engine. By default it runs against an embedded in-process database; with
// -connect host:port it speaks the wire protocol to a running sgbd instead.
// Both modes share one command handler: the settings commands (\alg,
// \parallel, \batch, \limits) send name/value pairs to the engine's Set —
// the embedded database's defaults, or the connection's own session on the
// server — so both modes accept exactly the same values.
//
// Statements end with ';'. Meta commands:
//
//	\tables              embedded only: list tables
//	\load tpch <SF>      embedded only: generate and load TPC-H-style data
//	\load checkin <N>    embedded only: generate and load a check-in table
//	                     ("checkins")
//	\save <file>         embedded only: snapshot the database to a file
//	\open <file>         embedded only: replace the database with a snapshot
//	\alg <name>          pick the SGB algorithm: auto (cost-based, the
//	                     default) | allpairs | bounds | index
//	\parallel <n>        set the morsel worker count (0 = auto/GOMAXPROCS,
//	                     1 = serial)
//	\batch <n>           set the batch/morsel row count (0 = engine default)
//	\limits rows <n> | time <dur> | off
//	                     set per-query resource limits
//	\alg, \parallel, \batch, \limits with no argument
//	                     embedded only: show the current settings
//	\timing              toggle query timing (with parse/plan/execute spans;
//	                     remote: also prints the query's trace ID)
//	\stats               dump the metrics registry (Prometheus text; remote:
//	                     the server's, over the wire)
//	\slowlog <ms>        log queries slower than <ms> to stderr (0 disables)
//	\slowlog             remote only: fetch the server's slow-query log,
//	                     newest first, with each query's trace spans
//	\processlist         remote only: show the server's in-flight queries
//	                     (trace ID, client, state, elapsed)
//	\subscribe <view> [<token>]
//	                     remote only: stream a materialized view's deltas
//	                     until Ctrl-C; with a token, resume after that seq
//	\q                   quit
//
// Ctrl-C while a statement is executing cancels that statement (embedded:
// context cancellation; remote: a wire Cancel frame — the server aborts the
// query and the connection stays usable); Ctrl-C at the prompt exits the
// shell.
//
// Example session:
//
//	sgb> \load checkin 10000
//	sgb> SELECT count(*) FROM checkins
//	     GROUP BY lat, lon DISTANCE-TO-ANY L2 WITHIN 0.5;
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"sgb/internal/checkin"
	"sgb/internal/client"
	"sgb/internal/engine"
	"sgb/internal/stream"
	"sgb/internal/tpch"
	"sgb/internal/wire"
)

// session bundles the shell's state: the embedded database handle or the
// remote connection, plus the observability toggles.
type session struct {
	db      *engine.DB   // embedded mode (nil when remote)
	conn    *client.Conn // remote mode (nil when embedded)
	timing  bool
	slowLog time.Duration // 0 = disabled
}

// exec runs one statement with SIGINT wired to query cancellation: Ctrl-C
// mid-query aborts the statement instead of the shell. In remote mode the
// context cancellation sends a wire Cancel frame to the server. The signal
// registration is scoped to the statement, so Ctrl-C at the idle prompt keeps
// its default exit behaviour.
func (s *session) exec(sql string) (*engine.Result, error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if s.conn != nil {
		return s.conn.Query(ctx, sql)
	}
	return s.db.ExecContext(ctx, sql)
}

func main() {
	connect := flag.String("connect", "", "connect to a remote sgbd at host:port instead of running embedded")
	flag.Parse()

	s := &session{}
	if *connect != "" {
		conn, err := client.Connect(*connect)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sgbcli: connect:", err)
			os.Exit(1)
		}
		defer conn.Close()
		s.conn = conn
		fmt.Printf("connected to %s (%s) — \\q to quit\n", *connect, conn.Server())
	} else {
		s.db = engine.NewDB()
		fmt.Println("similarity group-by shell — \\q to quit, \\load tpch 1 to get data")
	}
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder

	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("sgb> ")
		} else {
			fmt.Print("...> ")
		}
	}
	prompt()
	for in.Scan() {
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if !meta(s, trimmed) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			prompt()
			continue
		}
		sql := strings.TrimSpace(buf.String())
		buf.Reset()
		start := time.Now()
		res, err := s.exec(sql)
		elapsed := time.Since(start)
		if err != nil {
			if client.IsCanceled(err) {
				fmt.Printf("canceled after %v\n", elapsed.Round(time.Millisecond))
			} else {
				fmt.Println("error:", err)
				printErrHint(err)
			}
		} else {
			printResult(res)
			if s.timing {
				switch {
				case s.db != nil && s.db.LastTrace() != nil:
					fmt.Printf("(%v — %s)\n", elapsed, s.db.LastTrace())
				case s.conn != nil && s.conn.LastTraceID() != "":
					// The trace ID keys the server-side trace: feed it to
					// \slowlog or /debug/slowlog for the span breakdown.
					fmt.Printf("(%v — trace=%s)\n", elapsed, s.conn.LastTraceID())
				default:
					fmt.Printf("(%v)\n", elapsed)
				}
			}
		}
		if s.slowLog > 0 && elapsed >= s.slowLog {
			fmt.Fprintf(os.Stderr, "slow query (%v): %s\n", elapsed, firstLine(sql))
		}
		prompt()
	}
}

// printErrHint translates the server's typed degradation errors into a
// human next step, including the server's retry-after hint when present.
func printErrHint(err error) {
	var se *client.ServerError
	if !errors.As(err, &se) {
		return
	}
	retry := ""
	if d := se.RetryAfter(); d > 0 {
		retry = fmt.Sprintf(" (server suggests retrying in %v)", d)
	}
	switch se.Code {
	case wire.CodeReadOnly:
		fmt.Printf("hint: server is read-only: disk full or write fault; reads keep working and writes resume automatically once the disk recovers%s\n", retry)
	case wire.CodeOverloaded:
		fmt.Printf("hint: server is shedding load (admission queue or memory budget full); retry the statement%s\n", retry)
	}
}

// firstLine compresses a statement to one log-friendly line.
func firstLine(sql string) string {
	sql = strings.Join(strings.Fields(sql), " ")
	if len(sql) > 120 {
		sql = sql[:117] + "..."
	}
	return sql
}

// settingCommands maps each single-value settings command onto the Set key
// it sends and its usage line.
var settingCommands = map[string]struct{ key, usage string }{
	"\\alg":      {"sgb_algorithm", "usage: \\alg auto|allpairs|bounds|index"},
	"\\parallel": {"parallelism", "usage: \\parallel <n>  (0 = auto, 1 = serial)"},
	"\\batch":    {"batch_size", "usage: \\batch <n>  (0 = engine default)"},
}

// setter takes a setting by name, in the engine's one key list; *engine.DB
// and *client.Conn both implement it.
type setter interface {
	Set(name, value string) error
}

// settings is where the settings commands send their name/value pairs: the
// embedded database's defaults, or this connection's session on the server.
func (s *session) settings() setter {
	if s.conn != nil {
		return s.conn
	}
	return s.db
}

// meta handles a backslash command in either mode; it returns false on \q.
// The package comment lists the few commands that exist in one mode only.
func meta(s *session, cmd string) bool {
	fields := strings.Fields(cmd)
	// set sends name/value pairs in order, stopping at the first refusal.
	set := func(pairs ...string) {
		for i := 0; i+1 < len(pairs); i += 2 {
			if err := s.settings().Set(pairs[i], pairs[i+1]); err != nil {
				fmt.Println("error:", err)
				return
			}
			fmt.Printf("%s = %s\n", pairs[i], pairs[i+1])
		}
	}
	switch name := fields[0]; name {
	case "\\q", "\\quit":
		return false
	case "\\timing":
		s.timing = !s.timing
		fmt.Println("timing:", s.timing)
	case "\\stats":
		if s.conn == nil {
			if err := s.db.Metrics().WritePrometheus(os.Stdout); err != nil {
				fmt.Println("stats failed:", err)
			}
			break
		}
		text, err := s.conn.Stats()
		if err != nil {
			fmt.Println("stats failed:", err)
			break
		}
		printStatsHeadline(text)
		fmt.Print(text)
	case "\\slowlog":
		if len(fields) == 1 && s.conn != nil {
			printServerSlowLog(s.conn)
			break
		}
		if len(fields) != 2 {
			fmt.Println("usage: \\slowlog <milliseconds>  (0 disables; with -connect, no argument fetches the server slowlog)")
			break
		}
		ms, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || ms < 0 {
			fmt.Println("bad threshold:", fields[1])
			break
		}
		s.slowLog = time.Duration(ms * float64(time.Millisecond))
		if s.slowLog == 0 {
			fmt.Println("slow-query log disabled")
		} else {
			fmt.Printf("logging queries slower than %v to stderr\n", s.slowLog)
		}
	case "\\alg", "\\parallel", "\\batch":
		switch c := settingCommands[name]; {
		case len(fields) == 2:
			set(c.key, fields[1])
		case len(fields) == 1 && s.db != nil:
			fmt.Println(s.db.Settings())
		default:
			fmt.Println(c.usage)
		}
	case "\\limits":
		switch {
		case len(fields) == 1 && s.db != nil:
			fmt.Println(s.db.Settings())
		case len(fields) == 2 && fields[1] == "off":
			set("max_rows", "0", "max_time", "0")
		case len(fields) == 3 && fields[1] == "rows":
			set("max_rows", fields[2])
		case len(fields) == 3 && fields[1] == "time":
			set("max_time", fields[2])
		default:
			fmt.Println("usage: \\limits rows <n> | time <duration> | off")
		}
	case "\\tables", "\\load", "\\save", "\\open":
		if s.db == nil {
			fmt.Printf("%s needs the embedded database; not available with -connect\n", name)
			break
		}
		s.embeddedCommand(fields)
	case "\\processlist", "\\subscribe":
		if s.conn == nil {
			fmt.Printf("%s needs a server; use -connect\n", name)
			break
		}
		s.serverCommand(fields)
	default:
		fmt.Println("unknown command:", name)
	}
	return true
}

// embeddedCommand runs a command that needs the embedded database.
func (s *session) embeddedCommand(fields []string) {
	db := s.db
	switch fields[0] {
	case "\\tables":
		for _, n := range db.Catalog().Names() {
			t, _ := db.Catalog().Get(n)
			fmt.Printf("%s (%d rows)\n", n, len(t.Rows))
		}
	case "\\save":
		if len(fields) != 2 {
			fmt.Println("usage: \\save <file>")
			break
		}
		f, err := os.Create(fields[1])
		if err != nil {
			fmt.Println("save failed:", err)
			break
		}
		err = db.Save(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Println("save failed:", err)
		} else {
			fmt.Println("saved to", fields[1])
		}
	case "\\open":
		if len(fields) != 2 {
			fmt.Println("usage: \\open <file>")
			break
		}
		f, err := os.Open(fields[1])
		if err != nil {
			fmt.Println("open failed:", err)
			break
		}
		loaded, err := engine.Load(f)
		f.Close()
		if err != nil {
			fmt.Println("open failed:", err)
			break
		}
		s.db = loaded
		fmt.Println("opened", fields[1])
	case "\\load":
		if len(fields) != 3 {
			fmt.Println("usage: \\load tpch <SF> | \\load checkin <N>")
			break
		}
		switch fields[1] {
		case "tpch":
			sf, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				fmt.Println("bad scale factor:", fields[2])
				break
			}
			d := tpch.Generate(tpch.Config{SF: sf, Seed: 1})
			if err := d.Load(db); err != nil {
				fmt.Println("load failed:", err)
				break
			}
			fmt.Printf("loaded: %v\n", d.Counts())
		case "checkin":
			n, err := strconv.Atoi(fields[2])
			if err != nil {
				fmt.Println("bad count:", fields[2])
				break
			}
			cs := checkin.Generate(checkin.Config{N: n, Seed: 1})
			if err := checkin.Load(db, "checkins", cs); err != nil {
				fmt.Println("load failed:", err)
				break
			}
			fmt.Printf("loaded %d check-ins into table checkins\n", n)
		default:
			fmt.Println("unknown dataset:", fields[1])
		}
	}
}

// serverCommand runs a command that needs a server connection.
func (s *session) serverCommand(fields []string) {
	switch fields[0] {
	case "\\processlist":
		procs, err := s.conn.ProcessList(context.Background())
		if err != nil {
			fmt.Println("processlist failed:", err)
			break
		}
		if len(procs) == 0 {
			fmt.Println("no queries in flight")
			break
		}
		for _, q := range procs {
			fmt.Printf("trace=%s  client=%s  state=%-10s  %8.3fms  %s\n",
				q.TraceID, q.Client, q.State, q.ElapsedMS, firstLine(q.SQL))
		}
	case "\\subscribe":
		if len(fields) < 2 || len(fields) > 3 {
			fmt.Println("usage: \\subscribe <view> [<resume-token>]")
			break
		}
		var token uint64
		if len(fields) == 3 {
			t, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				fmt.Println("bad resume token:", fields[2])
				break
			}
			token = t
		}
		s.subscribe(fields[1], token)
	}
}

// printServerSlowLog fetches and prints the server's slow-query log, newest
// first, with each query's trace spans.
func printServerSlowLog(c *client.Conn) {
	entries, err := c.SlowLog(context.Background())
	if err != nil {
		fmt.Println("slowlog failed:", err)
		return
	}
	if len(entries) == 0 {
		fmt.Println("server slowlog is empty")
		return
	}
	for _, e := range entries {
		fmt.Printf("%s  %8.3fms  trace=%s  client=%s\n", e.FinishedAt, e.ElapsedMS, e.TraceID, e.Client)
		fmt.Printf("  %s\n", firstLine(e.SQL))
		if e.Err != "" {
			fmt.Printf("  error: %s\n", e.Err)
		}
		for _, sp := range e.Trace.Spans {
			fmt.Printf("  %-12s %8.3fms\n", sp.Name, sp.DurMS)
		}
	}
}

// printStatsHeadline surfaces the server's degradation state above the raw
// Prometheus dump: read-only mode, queued admissions, and memory pressure
// are the first things an operator checks when queries misbehave.
func printStatsHeadline(text string) {
	get := func(name string) (float64, bool) {
		for _, line := range strings.Split(text, "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
				return v, err == nil
			}
		}
		return 0, false
	}
	if v, ok := get("server_degraded"); ok && v != 0 {
		fmt.Println("!! server is DEGRADED (read-only): writes are rejected until the disk probe recovers")
	}
	if v, ok := get("server_admission_queued"); ok && v > 0 {
		fmt.Printf("!! %d statement(s) queued for admission (server at max-active-queries)\n", int64(v))
	}
	used, okUsed := get("engine_mem_used_bytes")
	budget, okBudget := get("engine_mem_budget_bytes")
	if okUsed && okBudget && budget > 0 {
		fmt.Printf("memory: %.0f of %.0f budget bytes in use (%.0f%%)\n", used, budget, 100*used/budget)
	}
}

// subscribe streams a materialized view's deltas to stdout until Ctrl-C,
// then detaches cleanly and returns the connection to the idle prompt. Each
// line carries the delta's resume token (seq), so a later
// \subscribe <view> <seq> resumes after the last delta seen.
func (s *session) subscribe(view string, token uint64) {
	ss, err := s.conn.SubscribeOnce(view, token)
	if err != nil {
		fmt.Println("subscribe failed:", err)
		return
	}
	if ss.Snapshot {
		fmt.Printf("-- snapshot at seq %d (token predates retention; full state image follows); Ctrl-C to stop\n", ss.Seq)
	} else {
		fmt.Printf("-- live after seq %d; Ctrl-C to stop\n", ss.Seq)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			// The server answers Cancel with Done, unblocking Next below.
			s.conn.Cancel()
		case <-done:
		}
	}()
	n := 0
	for {
		d, err := ss.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				fmt.Printf("-- subscription closed (%d deltas)\n", n)
			} else {
				fmt.Println("stream error:", err)
			}
			return
		}
		n++
		switch d.Kind {
		case stream.GroupsMerged:
			fmt.Printf("seq=%d  %-14s group=%d absorbed=%v\n", d.Seq, d.Kind, d.Group, d.Merged)
		case stream.GroupDissolved:
			fmt.Printf("seq=%d  %-14s group=%d\n", d.Seq, d.Kind, d.Group)
		default:
			fmt.Printf("seq=%d  %-14s group=%d members=%v\n", d.Seq, d.Kind, d.Group, d.Members)
		}
	}
}

func printResult(res *engine.Result) {
	if len(res.Columns) == 0 {
		if res.RowsAffected > 0 {
			fmt.Printf("ok (%d rows)\n", res.RowsAffected)
		} else {
			fmt.Println("ok")
		}
		return
	}
	widths := make([]int, len(res.Columns))
	for i, c := range res.Columns {
		widths[i] = len(c)
	}
	// EXPLAIN plans are one wide column; clipping them at 60 chars would
	// cut off the actuals annotations.
	isPlan := len(res.Columns) == 1 && res.Columns[0] == "plan"
	const maxRows = 50
	shown := res.Rows
	if len(shown) > maxRows {
		shown = shown[:maxRows]
	}
	cells := make([][]string, len(shown))
	for i, r := range shown {
		cells[i] = make([]string, len(r))
		for j, v := range r {
			s := v.String()
			if len(s) > 60 && !isPlan {
				s = s[:57] + "..."
			}
			cells[i][j] = s
			if j < len(widths) && len(s) > widths[j] {
				widths[j] = len(s)
			}
		}
	}
	row := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				fmt.Print(" | ")
			}
			fmt.Print(v, strings.Repeat(" ", widths[i]-len(v)))
		}
		fmt.Println()
	}
	row(res.Columns)
	total := 0
	for _, w := range widths {
		total += w + 3
	}
	fmt.Println(strings.Repeat("-", total))
	for _, r := range cells {
		row(r)
	}
	if len(res.Rows) > maxRows {
		fmt.Printf("... (%d rows total)\n", len(res.Rows))
	} else {
		fmt.Printf("(%d rows)\n", len(res.Rows))
	}
}
