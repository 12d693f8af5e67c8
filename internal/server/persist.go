package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
)

// persister is the store's durable mirror: one JSON file per job (the
// Job's own JSON form) under a state directory, written atomically (temp
// file + rename) on every state transition. The files are small — a
// finished job holds only the scalar result view and the rendered
// report, and a queued Verilog upload keeps its source exactly until the
// flow consumes it — so the write-per-transition cost stays negligible
// next to a flow run.
//
// Durability contract: a restart re-serves every finished job byte-for-
// byte (result view, report, stage history) and re-enqueues every job
// that was queued or running when the process died. Re-run jobs start
// from scratch — their partial stage history is discarded — and land on
// the same report bytes as an uninterrupted run would have: the flow is
// deterministic and the AnalysisCache fingerprint keys make the replay
// cheap when the cache survives (and merely slower, never different,
// when it does not).
type persister struct {
	dir string
	// writeErrs counts failed disk writes; the serving path never fails
	// on them (memory stays authoritative) but /v1/stats surfaces the
	// counter so an operator sees a sick state directory.
	writeErrs atomic.Uint64
	// quarantined counts the job files load could not decode and renamed
	// to .corrupt; written before the server accepts traffic.
	quarantined int
}

// openPersister creates (or reopens) a state directory.
func openPersister(dir string) (*persister, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: state dir: %w", err)
	}
	return &persister{dir: dir}, nil
}

func (p *persister) path(id string) string {
	return filepath.Join(p.dir, id+".json")
}

// put mirrors one job snapshot to disk. The caller holds the store
// lock, which orders the writes: the last rename wins and it is always
// the newest state.
func (p *persister) put(j *Job) {
	data, err := json.Marshal(j)
	if err != nil {
		p.writeErrs.Add(1)
		return
	}
	tmp := p.path(j.ID) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		p.writeErrs.Add(1)
		return
	}
	if err := os.Rename(tmp, p.path(j.ID)); err != nil {
		_ = os.Remove(tmp)
		p.writeErrs.Add(1)
	}
}

// remove deletes a job's file (submit rollback or retention eviction).
func (p *persister) remove(id string) {
	if err := os.Remove(p.path(id)); err != nil && !os.IsNotExist(err) {
		p.writeErrs.Add(1)
	}
}

// load reads every persisted job, in ID order (which is submission
// order — IDs are a zero-padded sequence), and returns the highest job
// sequence any job file name carries, decodable, quarantined or not, so
// a new job can never take the ID of a file on disk. A file that does not decode
// into a job (a torn write, or corruption outside the atomic-rename
// protocol) is renamed to <name>.corrupt: kept for inspection, never
// deleted, and never in the way of a restart. Stale .json.tmp leftovers
// of a write the process died in are removed.
func (p *persister) load() ([]*Job, uint64, error) {
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		return nil, 0, fmt.Errorf("server: state dir: %w", err)
	}
	var names []string
	var lastSeq uint64
	for _, e := range entries {
		switch name := e.Name(); {
		case e.IsDir():
		case strings.HasSuffix(name, ".json.tmp"):
			if err := os.Remove(filepath.Join(p.dir, name)); err != nil && !os.IsNotExist(err) {
				p.writeErrs.Add(1)
			}
		case strings.HasSuffix(name, ".json"):
			names = append(names, name)
		case strings.HasSuffix(name, ".json.corrupt"):
			lastSeq = max(lastSeq, jobSeq(name)) // a quarantined job keeps its ID
		}
	}
	sort.Strings(names)
	jobs := make([]*Job, 0, len(names))
	for _, name := range names {
		lastSeq = max(lastSeq, jobSeq(name))
		path := filepath.Join(p.dir, name)
		data, err := os.ReadFile(path)
		j := new(Job)
		if err == nil {
			err = json.Unmarshal(data, j)
		}
		if err != nil || j.ID == "" {
			if err := os.Rename(path, path+".corrupt"); err != nil {
				p.writeErrs.Add(1)
			}
			p.quarantined++
			continue
		}
		jobs = append(jobs, j)
	}
	return jobs, lastSeq, nil
}
