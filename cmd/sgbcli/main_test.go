package main

import (
	"context"
	"testing"
	"time"

	"sgb/internal/client"
	"sgb/internal/engine"
	"sgb/internal/server"
)

// TestSettingsScriptSameInBothModes runs one settings script through the
// shell's command handler embedded and against a server, then checks that
// the embedded database ends with exactly the settings the server recorded
// on the slowlog entry of the connection's next statement.
func TestSettingsScriptSameInBothModes(t *testing.T) {
	script := []string{
		`\alg bounds`,
		`\parallel 3`,
		`\batch 128`,
		`\limits rows 500`,
		`\limits time 2s`,
		`\parallel -1`, // refused in both modes
		`\alg nonsense`,
	}

	embedded := &session{db: engine.NewDB()}
	for _, cmd := range script {
		if !meta(embedded, cmd) {
			t.Fatalf("embedded %q quit the shell", cmd)
		}
	}
	want := embedded.db.Settings().String()
	if want == engine.NewDB().Settings().String() {
		t.Fatalf("script left the embedded defaults unchanged: %s", want)
	}

	srv := server.New(engine.NewDB(), server.Config{SlowQueryThreshold: 0})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	conn, err := client.Connect(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	remote := &session{conn: conn}
	for _, cmd := range script {
		if !meta(remote, cmd) {
			t.Fatalf("remote %q quit the shell", cmd)
		}
	}
	if _, err := remote.exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	entries := srv.SlowLog().Entries()
	if len(entries) == 0 || entries[0].TraceID != conn.LastTraceID() {
		t.Fatalf("slowlog %+v has no entry for trace %s", entries, conn.LastTraceID())
	}
	if got := entries[0].Settings; got != want {
		t.Fatalf("server session settings %q, embedded %q", got, want)
	}
}
