package main

import (
	"context"
	"fmt"
	"time"

	"sgb/internal/client"
	"sgb/internal/engine"
	"sgb/internal/obs"
	"sgb/internal/server"
	"sgb/internal/stream"
	"sgb/internal/wal"
)

// sgbd's flag defaults, which the stack reproduces.
const (
	sgbdSlowQuery     = 100 * time.Millisecond
	sgbdSlowlogSize   = 128
	sgbdFsyncInterval = 100 * time.Millisecond
)

// stack is one in-process sgbd, wired the way cmd/sgbd wires it with its
// flag defaults: -alg auto, -parallel 0 (GOMAXPROCS), -batch 0, no limits,
// -trace-sample 64, -auto-analyze on, no memory budget, -slow-query 100ms.
// Durable stacks use -fsync always. The HTTP metrics listener is left out:
// it serves scrapes only and none happen here.
type stack struct {
	db      *engine.DB
	store   *server.Store // nil when ephemeral
	streams *stream.Manager
	srv     *server.Server
}

type bootOptions struct {
	// dataDir selects durable mode (sgbd -data-dir); "" is ephemeral.
	dataDir         string
	checkpointEvery time.Duration
	// fs and observer stand in for the store's filesystem and commit
	// observer; nil means the real filesystem and the stream manager itself.
	fs       wal.FS
	observer func(*stream.Manager) server.CommitObserver
}

// boot opens the database and applies sgbd's default settings. It does not
// start the server; see serve.
func boot(o bootOptions) (*stack, error) {
	reg := obs.NewRegistry()
	st := &stack{streams: stream.NewManager()}
	if o.dataDir != "" {
		var observer server.CommitObserver = st.streams
		if o.observer != nil {
			observer = o.observer(st.streams)
		}
		store, err := server.OpenStore(server.StoreOptions{
			Dir:                o.dataDir,
			Policy:             wal.SyncAlways,
			SyncInterval:       sgbdFsyncInterval,
			CheckpointInterval: o.checkpointEvery,
			Metrics:            reg,
			Observer:           observer,
			FS:                 o.fs,
		})
		if err != nil {
			return nil, err
		}
		st.store, st.db = store, store.DB()
	} else {
		st.db = engine.NewDB()
		st.db.SetMetrics(reg)
		st.streams.AttachEngine(st.db)
	}
	st.db.SetSGBAlgorithmAuto()
	st.db.SetParallelism(0)
	st.db.SetBatchSize(0)
	st.db.SetLimits(engine.Limits{})
	st.db.SetTraceSampling(engine.DefaultTraceSampling)
	st.db.SetAutoAnalyze(true)
	st.db.SetMemoryBudget(0)
	return st, nil
}

// serve starts the wire server on a loopback port.
func (st *stack) serve() error {
	st.srv = server.New(st.db, server.Config{
		Addr:               "127.0.0.1:0",
		SlowQueryThreshold: sgbdSlowQuery,
		SlowLogSize:        sgbdSlowlogSize,
		Streams:            st.streams,
		Store:              st.store,
	})
	return st.srv.Start()
}

func (st *stack) connect(ctx context.Context) (*client.Conn, error) {
	return client.ConnectContext(ctx, st.srv.Addr().String())
}

// exec runs setup SQL embedded, as the server's own sessions would.
func (st *stack) exec(sql string) error {
	if _, err := st.db.Exec(sql); err != nil {
		return fmt.Errorf("%.60s: %w", sql, err)
	}
	return nil
}

// close drains the server, stops the auto-ANALYZE worker and closes the
// store (which writes a final checkpoint).
func (st *stack) close() error {
	var err error
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = st.srv.Shutdown(ctx)
		cancel()
	}
	st.db.SetAutoAnalyze(false)
	if st.store != nil {
		if cerr := st.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
