package serve

// Persistence wiring: how solved snapshots reach the crash-safe store and
// how a restarted daemon gets them back.
//
// Warm-load runs once, in the background, between New and readiness. It
// reconstructs the dead daemon's cache in its original FIFO order (the
// store's Keys() are mtime-ordered, so record order mirrors solve order),
// bounded by MaxPrograms exactly like the live cache: overflow records are
// the ones eviction would already have deleted, so they are deleted now —
// disk and memory never disagree about what is cached. Every way a record
// can be bad (unreadable frame, checksum mismatch, payload that does not
// decode, payload that disagrees with its own key) converges on the same
// outcome: quarantine + cache miss + fresh solve on first query.

import (
	"context"
	"encoding/json"
	"errors"
	"sort"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/persist"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Readiness states (Server.state).
const (
	stateWarming int32 = iota
	stateReady
	stateDraining
)

func stateName(st int32) string {
	switch st {
	case stateWarming:
		return "warming"
	case stateDraining:
		return "draining"
	default:
		return "ready"
	}
}

// Ready reports whether the daemon accepts new analysis work (the /readyz
// predicate): warm-load finished and drain has not begun.
func (s *Server) Ready() bool { return s.state.Load() == stateReady }

// State returns the readiness state name: "warming", "ready", "draining".
func (s *Server) State() string { return stateName(s.state.Load()) }

// BeginDrain moves the daemon into the draining state: /readyz turns 503,
// new POST work is refused with a typed "draining" error, GET endpoints
// keep serving. Idempotent; it does not wait for in-flight requests (that
// is http.Server.Shutdown's job) and it interrupts a still-running
// warm-load at the next record boundary.
func (s *Server) BeginDrain() {
	if s.state.Swap(stateDraining) != stateDraining {
		s.metrics.Counter("serve/drain/begun").Inc()
	}
}

// WaitWarm blocks until the warm-load pass finishes (immediately on a
// memory-only daemon) or ctx expires.
func (s *Server) WaitWarm(ctx context.Context) error {
	select {
	case <-s.warmDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// warmLoad replays the persistent store into the in-memory cache. Runs in
// its own goroutine; everything it touches is lock-protected or atomic.
func (s *Server) warmLoad() {
	defer close(s.warmDone)
	// Draining can begin mid-warm; never clobber that back to ready.
	defer s.state.CompareAndSwap(stateWarming, stateReady)
	_, _, finish := telemetry.StartSpanCtx(context.Background(), s.metrics, "serve/warm-load")
	defer finish()
	keys, err := s.store.Keys()
	if err != nil {
		s.metrics.Counter("persist/warm-scan-failures").Inc()
		return
	}
	// Group records by program, preserving the store's oldest-first order.
	var progOrder []string
	byProg := map[string][]string{}
	for _, key := range keys {
		k, ok := splitPersistKey(key)
		if !ok {
			// A stray file this daemon never wrote; leave it alone.
			s.metrics.Counter("persist/warm-skipped").Inc()
			continue
		}
		if byProg[k.hash] == nil {
			progOrder = append(progOrder, k.hash)
		}
		byProg[k.hash] = append(byProg[k.hash], key)
	}
	// Bound the warm set like the live cache. Overflow programs are the
	// oldest — the ones FIFO eviction would have deleted had the previous
	// daemon kept running — so delete their records rather than skip them:
	// disk stays coherent with the cache being rebuilt.
	if excess := len(progOrder) - s.cfg.MaxPrograms; excess > 0 {
		for _, hash := range progOrder[:excess] {
			for _, key := range byProg[hash] {
				s.store.Delete(key)
				s.metrics.Counter("persist/warm-evicted").Inc()
			}
		}
		progOrder = progOrder[excess:]
	}
	total := 0
	for _, hash := range progOrder {
		total += len(byProg[hash])
	}
	s.warmTotal.Store(int64(total))
	for _, hash := range progOrder {
		for _, key := range byProg[hash] {
			if s.state.Load() == stateDraining {
				return
			}
			s.warmOne(hash, key)
		}
	}
}

// warmOne loads one record, cross-checks it against its key, and installs
// its snapshot. Every failure degrades to a miss (fresh solve on first
// query); failures that implicate the record itself also quarantine it.
func (s *Server) warmOne(hash, key string) {
	k, _ := splitPersistKey(key)
	payload, err := s.store.Load(key)
	if err != nil {
		// The store already quarantined and counted a corrupt frame;
		// ErrNotExist (a raced delete) and I/O errors are plain misses.
		var ce *persist.CorruptEntryError
		if errors.As(err, &ce) {
			s.warmQuarantined.Add(1)
		}
		return
	}
	var rec persistRecord
	if err := json.Unmarshal(payload, &rec); err != nil || rec.Snapshot == nil {
		s.quarantineWarm(key, "record payload does not decode to a result snapshot")
		return
	}
	if hashSource(rec.Source) != k.hash || rec.Config != k.cfg {
		// The frame verified but describes a different analysis than its
		// key claims — semantic corruption, same treatment as bit rot.
		s.quarantineWarm(key, "record content disagrees with its key")
		return
	}
	// A record exists only for a program that compiled and solved, so the
	// program enters the table uncompiled; its first query compiles it.
	s.insertProgram(k.hash, &workload.App{Name: progName(k.hash), Source: rec.Source})
	res := newServedResult(rec.Snapshot)
	s.mu.Lock()
	if s.results[k] == nil { // a concurrent fresh solve wins ties
		s.results[k] = res
		s.warmLoaded.Add(1)
		s.metrics.Counter("persist/warm-loaded").Inc()
	}
	s.mu.Unlock()
}

func (s *Server) quarantineWarm(key, reason string) {
	s.store.Quarantine(key, reason)
	s.warmQuarantined.Add(1)
}

// result returns the installed snapshot for key, if any — the cheap-lookup
// fast path that stays servable on the fallback view and while draining
// completes in-flight work.
func (s *Server) result(k solvedKey) *servedResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.results[k]
}

// storeResult projects sys into its snapshot, installs it (first
// projection wins; coalesced solvers project identical snapshots anyway),
// and spills the record to the persistent store when one is attached.
func (s *Server) storeResult(k solvedKey, sys *core.System) *servedResult {
	if res := s.result(k); res != nil {
		return res
	}
	res := newServedResult(project(sys)) // outside s.mu: projection walks the whole result
	s.mu.Lock()
	if prev := s.results[k]; prev != nil {
		s.mu.Unlock()
		return prev
	}
	s.results[k] = res
	s.mu.Unlock()
	if s.store != nil {
		s.saveRecord(k, res)
	}
	// From here every answer for this key comes from the snapshot; the live
	// System is scaffolding. Drop it from the solve cache, keeping the
	// Baseline entry that further configurations of this program share as
	// their fallback.
	s.cache.Compact(progName(k.hash), invariant.Config{}.Name())
	return res
}

// saveRecord writes one record to the store. A failed save marks the entry
// dirty — still served from memory, retried by FlushDirty at drain — so a
// transient disk fault costs durability of one entry until shutdown, never
// availability.
func (s *Server) saveRecord(k solvedKey, res *servedResult) error {
	s.mu.Lock()
	app := s.apps[k.hash]
	s.mu.Unlock()
	if app == nil {
		return nil // program evicted while the solve finished; nothing to persist
	}
	payload, err := json.Marshal(persistRecord{Source: app.Source, Config: k.cfg, Snapshot: res.snap})
	if err == nil {
		err = s.store.Save(persistKey(k), payload)
	}
	s.mu.Lock()
	if err != nil {
		if s.results[k] != nil {
			s.dirty[k] = true
		}
	} else {
		delete(s.dirty, k)
	}
	s.mu.Unlock()
	return err
}

// FlushDirty retries the disk save of every result whose earlier save
// failed. The daemon calls it after the HTTP server has drained, so
// nothing solved in the final generation is lost to a transient write
// error. Returns how many entries were flushed and how many still failed.
func (s *Server) FlushDirty() (flushed, failed int) {
	if s.store == nil {
		return 0, 0
	}
	s.mu.Lock()
	keys := make([]solvedKey, 0, len(s.dirty))
	for k := range s.dirty {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].hash != keys[j].hash {
			return keys[i].hash < keys[j].hash
		}
		return keys[i].cfg < keys[j].cfg
	})
	for _, k := range keys {
		res := s.result(k)
		if res == nil {
			continue // evicted since; its record went with it
		}
		if s.saveRecord(k, res) != nil {
			failed++
			s.metrics.Counter("serve/drain/flush-failures").Inc()
			continue
		}
		flushed++
		s.metrics.Counter("serve/drain/flushed").Inc()
	}
	return flushed, failed
}
