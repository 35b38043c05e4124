package engine

import (
	"strings"
	"testing"
	"time"

	"sgb/internal/core"
)

// TestSettingsSet drives the one settings key list: every key with good
// values, every value the wire server has always refused, and an unknown
// key. A refused Set must leave the settings untouched, and the same pairs
// must behave identically on a DB and on a Session.
func TestSettingsSet(t *testing.T) {
	cases := []struct {
		name, value string
		ok          bool
		check       func(Settings) bool
	}{
		{"sgb_algorithm", "allpairs", true, func(s Settings) bool { return !s.SGBAuto && s.SGBAlgorithm == core.AllPairs }},
		{"sgb_algorithm", "bounds", true, func(s Settings) bool { return !s.SGBAuto && s.SGBAlgorithm == core.BoundsChecking }},
		{"sgb_algorithm", "index", true, func(s Settings) bool { return !s.SGBAuto && s.SGBAlgorithm == core.IndexBounds }},
		{"sgb_algorithm", "auto", true, func(s Settings) bool { return s.SGBAuto }},
		{"sgb_algorithm", "grid", false, nil},
		{"sgb_algorithm", "", false, nil},
		{"sgb_algorithm", "AllPairs", false, nil},
		{"parallelism", "3", true, func(s Settings) bool { return s.Parallelism == 3 }},
		{"parallelism", "0", true, func(s Settings) bool { return s.Parallelism == 0 }},
		{"parallelism", "-1", false, nil},
		{"parallelism", "two", false, nil},
		{"parallelism", "", false, nil},
		{"batch_size", "128", true, func(s Settings) bool { return s.BatchSize == 128 }},
		{"batch_size", "-64", false, nil},
		{"batch_size", "1.5", false, nil},
		{"max_rows", "500", true, func(s Settings) bool { return s.Limits.MaxRowsMaterialized == 500 }},
		{"max_rows", "-5", false, nil},
		{"max_rows", "lots", false, nil},
		{"max_time", "2s", true, func(s Settings) bool { return s.Limits.MaxExecutionTime == 2*time.Second }},
		{"max_time", "0", true, func(s Settings) bool { return s.Limits.MaxExecutionTime == 0 }},
		{"max_time", "-1s", false, nil},
		{"max_time", "soon", false, nil},
		{"max_time", "5", false, nil},
		{"optimizer", "off", false, nil},
		{"", "1", false, nil},
	}
	for _, tc := range cases {
		db := NewDB()
		targets := map[string]interface {
			Set(name, value string) error
			Settings() Settings
		}{"db": db, "session": db.NewSession()}
		for kind, target := range targets {
			before := target.Settings()
			err := target.Set(tc.name, tc.value)
			after := target.Settings()
			switch {
			case tc.ok && err != nil:
				t.Errorf("%s Set(%q, %q) = %v, want ok", kind, tc.name, tc.value, err)
			case tc.ok && !tc.check(after):
				t.Errorf("%s Set(%q, %q) left %+v", kind, tc.name, tc.value, after)
			case !tc.ok && err == nil:
				t.Errorf("%s Set(%q, %q) accepted, want an error", kind, tc.name, tc.value)
			case !tc.ok && after != before:
				t.Errorf("%s refused Set(%q, %q) changed %+v to %+v", kind, tc.name, tc.value, before, after)
			}
		}
	}
}

// TestSettingsStringFeedsSet pins that String's key=value pairs are Set
// pairs: replaying them onto a fresh DB reproduces the settings.
func TestSettingsStringFeedsSet(t *testing.T) {
	src := NewDB()
	src.SetSGBAlgorithm(core.BoundsChecking)
	src.SetParallelism(3)
	src.SetBatchSize(128)
	src.SetLimits(Limits{MaxRowsMaterialized: 500, MaxExecutionTime: 1500 * time.Millisecond})
	want := src.Settings()

	dst := NewDB()
	for _, kv := range strings.Fields(want.String()) {
		name, value, _ := strings.Cut(kv, "=")
		if err := dst.Set(name, value); err != nil {
			t.Fatalf("Set(%q, %q) from String %q: %v", name, value, want, err)
		}
	}
	if got := dst.Settings(); got != want {
		t.Fatalf("replayed settings %+v, want %+v", got, want)
	}
	if got, def := want.String(), NewDB().Settings().String(); got == def {
		t.Fatalf("String %q does not differ from the defaults", got)
	}
}
