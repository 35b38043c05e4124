package engine

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"sgb/internal/core"
)

// Settings is the complete set of session-scoped execution knobs. A snapshot
// of Settings is taken when a statement starts and is threaded through
// planning and execution (via queryCtx), so a statement's behaviour is fixed
// at plan time: concurrent sessions changing their own knobs can never race a
// statement that is already in flight, and two sessions can hold different
// settings against the same shared DB.
type Settings struct {
	// SGBAlgorithm selects the physical similarity group-by implementation
	// (All-Pairs, Bounds-Checking, or the on-the-fly index). It is a manual
	// override only when SGBAuto is false; under SGBAuto it is the fallback
	// hint the optimizer uses when cost-based selection has nothing to go on.
	SGBAlgorithm core.Algorithm
	// SGBAuto (the default for new DBs) lets the cost-based optimizer choose
	// the SGB algorithm per query from the statistics catalog.
	SGBAuto bool
	// Limits bounds the resources a single statement may consume.
	Limits Limits
	// Parallelism is the morsel worker count: 0 = auto (GOMAXPROCS),
	// 1 = serial.
	Parallelism int
	// BatchSize is the batch/morsel row count; 0 = the engine default.
	BatchSize int
	// NoOptimize disables the cost-based analyzer rules, producing the naive
	// plan lowering. Semantics are unchanged; plan-equivalence tests use it
	// as the reference.
	NoOptimize bool
}

// String formats the settings as the Set key=value pairs that reproduce them
// (the server records it with every slowlog entry). Under auto selection the
// fallback hint is not shown, and NoOptimize, which has no Set key, is
// omitted.
func (st Settings) String() string {
	alg := "auto"
	if !st.SGBAuto {
		alg = SGBAlgorithmName(st.SGBAlgorithm)
	}
	return fmt.Sprintf("sgb_algorithm=%s parallelism=%d batch_size=%d max_rows=%d max_time=%s",
		alg, st.Parallelism, st.BatchSize, st.Limits.MaxRowsMaterialized, st.Limits.MaxExecutionTime)
}

// sgbAlgorithmNames are the sgb_algorithm setting's spellings, indexed by
// core.Algorithm.
var sgbAlgorithmNames = [...]string{
	core.AllPairs:       "allpairs",
	core.BoundsChecking: "bounds",
	core.IndexBounds:    "index",
}

// SGBAlgorithmName is the sgb_algorithm setting's spelling of a.
func SGBAlgorithmName(a core.Algorithm) string {
	if int(a) < len(sgbAlgorithmNames) {
		return sgbAlgorithmNames[a]
	}
	return a.String()
}

// settingsVar is the one implementation of the session knobs: DB embeds it
// for the defaults new sessions start from, Session for its own copy. Every
// method is safe for concurrent use and affects only subsequent statements.
type settingsVar struct {
	setMu sync.Mutex
	set   Settings
}

func (v *settingsVar) update(f func(*Settings)) {
	v.setMu.Lock()
	f(&v.set)
	v.setMu.Unlock()
}

// Settings returns a snapshot of the current settings.
func (v *settingsVar) Settings() Settings {
	v.setMu.Lock()
	defer v.setMu.Unlock()
	return v.set
}

// SetSGBAlgorithm forces the physical SGB implementation (All-Pairs,
// Bounds-Checking, or the on-the-fly index), overriding the optimizer's
// cost-based choice. It is the switch the benchmark harness flips between
// the paper's algorithm variants; SetSGBAlgorithmAuto restores cost-based
// selection.
func (v *settingsVar) SetSGBAlgorithm(a core.Algorithm) {
	v.update(func(s *Settings) { s.SGBAlgorithm, s.SGBAuto = a, false })
}

// SetSGBAlgorithmAuto restores cost-based SGB algorithm selection (the
// default): the optimizer picks per query from the statistics catalog.
func (v *settingsVar) SetSGBAlgorithmAuto() {
	v.update(func(s *Settings) { s.SGBAuto = true })
}

// SetOptimizer enables or disables the cost-based analyzer rules. Disabling
// (on=false) yields the naive plan lowering — semantically identical, used
// as the reference in plan-equivalence tests.
func (v *settingsVar) SetOptimizer(on bool) {
	v.update(func(s *Settings) { s.NoOptimize = !on })
}

// SetLimits installs per-query resource limits. The zero Limits removes all
// bounds.
func (v *settingsVar) SetLimits(lim Limits) {
	v.update(func(s *Settings) { s.Limits = lim })
}

// SetParallelism sets the worker count of morsel-parallel query fragments.
// n <= 0 restores the default, one worker per logical CPU (GOMAXPROCS);
// 1 forces serial execution.
func (v *settingsVar) SetParallelism(n int) {
	v.update(func(s *Settings) { s.Parallelism = max(n, 0) })
}

// SetBatchSize sets the batch/morsel row count of the vectorized executor.
// n <= 0 restores the engine default. Small values are mainly useful to
// force morsel-parallel plans on small tables in tests.
func (v *settingsVar) SetBatchSize(n int) {
	v.update(func(s *Settings) { s.BatchSize = max(n, 0) })
}

// Set changes one setting by name. It owns the one key list shared by the
// wire protocol's Set frame, sgbd's -alg flag and sgbcli's settings
// commands:
//
//	sgb_algorithm  auto | allpairs | bounds | index
//	parallelism    worker count >= 0 (0 = GOMAXPROCS, 1 = serial)
//	batch_size     rows per batch >= 0 (0 = engine default)
//	max_rows       materialized-row bound >= 0 (0 = unbounded)
//	max_time       Go duration >= 0, such as 2s (0 = unbounded)
//
// An unknown name or an unparseable value is an error and changes nothing.
func (v *settingsVar) Set(name, value string) error {
	switch name {
	case "sgb_algorithm":
		if value == "auto" {
			v.SetSGBAlgorithmAuto()
			return nil
		}
		for a, n := range sgbAlgorithmNames {
			if n == value {
				v.SetSGBAlgorithm(core.Algorithm(a))
				return nil
			}
		}
		return fmt.Errorf("unknown SGB algorithm %q (want auto|allpairs|bounds|index)", value)
	case "parallelism", "batch_size":
		n, err := strconv.Atoi(value)
		if err != nil || n < 0 {
			return fmt.Errorf("bad %s %q", name, value)
		}
		if name == "parallelism" {
			v.SetParallelism(n)
		} else {
			v.SetBatchSize(n)
		}
	case "max_rows":
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil || n < 0 {
			return fmt.Errorf("bad max_rows %q", value)
		}
		v.update(func(s *Settings) { s.Limits.MaxRowsMaterialized = n })
	case "max_time":
		d, err := time.ParseDuration(value)
		if err != nil || d < 0 {
			return fmt.Errorf("bad max_time %q (want a duration like 2s, or 0)", value)
		}
		v.update(func(s *Settings) { s.Limits.MaxExecutionTime = d })
	default:
		return fmt.Errorf("unknown setting %q", name)
	}
	return nil
}
