package engine

import (
	"encoding/gob"
	"fmt"
	"io"

	"sgb/internal/core"
)

// algFromByte decodes a stored algorithm selector, defaulting to the index
// variant on unknown values.
func algFromByte(b uint8) core.Algorithm {
	switch a := core.Algorithm(b); a {
	case core.AllPairs, core.BoundsChecking, core.IndexBounds:
		return a
	default:
		return core.IndexBounds
	}
}

// snapshot is the gob-encoded durable form of a database: the full catalog
// plus session settings. The engine is an in-memory system like the paper's
// prototype; snapshot persistence lets long-lived datasets (generated
// benchmarks, loaded CSVs) be saved and reopened without regeneration.
// Views are session-scoped query definitions and are not persisted;
// materialized views are durable catalog objects and are.
type snapshot struct {
	Version int
	Tables  []*Table
	SGBAlg  uint8
	// SGBManual marks SGBAlg as an explicit override rather than the auto
	// fallback hint. The field is inverted from Settings.SGBAuto so snapshots
	// written before cost-based selection existed (field absent, decodes
	// false) restore into auto mode, today's default.
	SGBManual bool
	// MatViews stores each materialized view as its name plus the original
	// SELECT text, re-parsed on load. The field is additive: snapshots from
	// before materialized views existed decode it empty.
	MatViews []SavedMatView
}

// SavedMatView is the persisted form of one materialized view definition.
type SavedMatView struct {
	Name string
	SQL  string
}

const snapshotVersion = 1

// Save writes a snapshot of the database to w. It takes the statement lock in
// read mode, so it sees a consistent catalog even with queries in flight.
func (db *DB) Save(w io.Writer) error { return db.SaveLocked(w, nil) }

// SaveLocked is Save with a callback invoked while the statement lock is
// held in read mode. Commit hooks run under the exclusive lock, so any state
// the callback captures (in particular the WAL position) is exactly
// consistent with the snapshot — this is how the checkpointer records which
// log prefix a snapshot covers.
func (db *DB) SaveLocked(w io.Writer, locked func()) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if locked != nil {
		locked()
	}
	st := db.Settings()
	snap := snapshot{
		Version:   snapshotVersion,
		SGBAlg:    uint8(st.SGBAlgorithm),
		SGBManual: !st.SGBAuto,
	}
	for _, name := range db.cat.Names() {
		t, err := db.cat.Get(name)
		if err != nil {
			return err
		}
		snap.Tables = append(snap.Tables, t)
	}
	for _, mv := range db.cat.MatViews() {
		snap.MatViews = append(snap.MatViews, SavedMatView{Name: mv.Name, SQL: mv.SQL})
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// Load restores a database from a snapshot written by Save.
func Load(r io.Reader) (*DB, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("engine: loading snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("engine: unsupported snapshot version %d", snap.Version)
	}
	db := NewDB()
	if snap.SGBManual {
		db.SetSGBAlgorithm(algFromByte(snap.SGBAlg))
	} else {
		// Keep auto selection on but restore the fallback hint. Load runs
		// before the DB is shared, so the direct write cannot race.
		db.set.SGBAlgorithm = algFromByte(snap.SGBAlg)
	}
	for _, t := range snap.Tables {
		created, err := db.cat.Create(t.Name, t.Schema)
		if err != nil {
			return nil, err
		}
		// Create re-qualifies the schema by table name; keep the stored
		// qualification, rows, statistics and index metadata as-is (index
		// buckets are rebuilt lazily on first use).
		created.Schema = t.Schema
		created.Rows = t.Rows
		created.Indexes = t.Indexes
		created.Stats = t.Stats
	}
	// Materialized views restore after tables so their base tables resolve;
	// re-parsing the stored SELECT re-derives the validated shape.
	for _, saved := range snap.MatViews {
		stmt, err := Parse(saved.SQL)
		if err != nil {
			return nil, fmt.Errorf("engine: snapshot matview %s: %w", saved.Name, err)
		}
		sel, ok := stmt.(*SelectStmt)
		if !ok {
			return nil, fmt.Errorf("engine: snapshot matview %s: definition is not a SELECT", saved.Name)
		}
		shape, err := db.matViewShape(sel)
		if err != nil {
			return nil, fmt.Errorf("engine: snapshot matview %s: %w", saved.Name, err)
		}
		mv := &MatView{Name: saved.Name, Query: sel, SQL: saved.SQL, Shape: shape}
		if err := db.cat.CreateMatView(mv); err != nil {
			return nil, err
		}
	}
	return db, nil
}
