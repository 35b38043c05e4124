package main

import (
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sgb/internal/engine"
	"sgb/internal/stream"
	"sgb/internal/wal"
)

// gatedFS is the store's filesystem seen from outside. It counts the bytes
// and fsyncs of WAL segments and checkpoints, records spans around each call
// when it has a recorder, and can pause: while paused, every call that
// changes the data dir (create, write, rename, remove, truncate) blocks, so
// the dir can be copied as a consistent kill -9 image.
type gatedFS struct {
	inner wal.FS
	rec   *recorder // nil: count and gate only

	gate sync.RWMutex // calls that change the dir hold it shared; pause holds it

	walBytes, walSyncs   atomic.Int64
	ckptBytes, ckptCount atomic.Int64

	ckptMu    sync.Mutex
	ckptStart time.Time
}

func newGatedFS(rec *recorder) *gatedFS { return &gatedFS{inner: wal.OS, rec: rec} }

func (g *gatedFS) pause()  { g.gate.Lock() }
func (g *gatedFS) resume() { g.gate.Unlock() }

// layerOf names the layer a file belongs to: WAL segments are "wal", the
// checkpoint and its temp file "store".
func layerOf(name string) string {
	if strings.HasPrefix(filepath.Base(name), "wal-") {
		return "wal"
	}
	return "store"
}

func isCheckpointTemp(name string) bool {
	return strings.HasPrefix(filepath.Base(name), "checkpoint") && strings.HasSuffix(name, ".tmp")
}

func (g *gatedFS) Create(name string) (wal.File, error) {
	g.gate.RLock()
	defer g.gate.RUnlock()
	if isCheckpointTemp(name) {
		g.ckptMu.Lock()
		g.ckptStart = time.Now()
		g.ckptMu.Unlock()
	}
	f, err := g.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &gatedFile{File: f, fs: g, layer: layerOf(name)}, nil
}

func (g *gatedFS) Rename(oldname, newname string) error {
	g.gate.RLock()
	defer g.gate.RUnlock()
	err := g.inner.Rename(oldname, newname)
	if err == nil && isCheckpointTemp(oldname) {
		g.ckptCount.Add(1)
		g.ckptMu.Lock()
		t0 := g.ckptStart
		g.ckptMu.Unlock()
		g.rec.timed("store.checkpoint", "", 0, t0, 0)
	}
	return err
}

func (g *gatedFS) Remove(name string) error {
	g.gate.RLock()
	defer g.gate.RUnlock()
	return g.inner.Remove(name)
}

func (g *gatedFS) Truncate(name string, size int64) error {
	g.gate.RLock()
	defer g.gate.RUnlock()
	return g.inner.Truncate(name, size)
}

func (g *gatedFS) Open(name string) (wal.File, error)   { return g.inner.Open(name) }
func (g *gatedFS) ReadDir(dir string) ([]string, error) { return g.inner.ReadDir(dir) }
func (g *gatedFS) SyncDir(dir string) error             { return g.inner.SyncDir(dir) }
func (g *gatedFS) Size(name string) (int64, error)      { return g.inner.Size(name) }

// spanOn reports whether a call on this layer's files is recorded: WAL
// calls follow the statement-path switch, checkpoint calls (background) are
// always recorded in a traced run.
func (g *gatedFS) spanOn(layer string) bool {
	return g.rec != nil && (layer == "store" || g.rec.on.Load())
}

type gatedFile struct {
	wal.File
	fs    *gatedFS
	layer string
}

func (f *gatedFile) Write(p []byte) (int, error) {
	f.fs.gate.RLock()
	defer f.fs.gate.RUnlock()
	t0 := time.Now()
	n, err := f.File.Write(p)
	if f.layer == "wal" {
		f.fs.walBytes.Add(int64(n))
	} else {
		f.fs.ckptBytes.Add(int64(n))
	}
	if f.fs.spanOn(f.layer) {
		f.fs.rec.timed(f.layer+".write", "", 0, t0, int64(n))
	}
	return n, err
}

func (f *gatedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	if f.layer == "wal" {
		f.fs.walSyncs.Add(1)
	}
	if f.fs.spanOn(f.layer) {
		f.fs.rec.timed(f.layer+".fsync", "", 0, t0, 0)
	}
	return err
}

// timedObserver is the store's commit observer seen from outside: it times
// the stream manager's Bootstrap and Commit calls. Resync passes through the
// embedded manager, so the store's degraded-mode recovery is unchanged.
type timedObserver struct {
	*stream.Manager
	rec *recorder
}

func (o *timedObserver) Bootstrap(db *engine.DB, seq uint64) {
	t0 := time.Now()
	o.Manager.Bootstrap(db, seq)
	o.rec.timed("stream.bootstrap", "", 0, t0, 0)
}

func (o *timedObserver) Commit(stmt engine.Statement, seq uint64) {
	if !o.rec.on.Load() {
		o.Manager.Commit(stmt, seq)
		return
	}
	t0 := time.Now()
	o.Manager.Commit(stmt, seq)
	note := "insert"
	if _, ok := stmt.(*engine.CreateMaterializedViewStmt); ok {
		note = "create_view"
	}
	o.rec.timed("stream.commit", note, 0, t0, 0)
}
