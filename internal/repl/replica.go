package repl

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dora/internal/buffer"
	"dora/internal/metrics"
	"dora/internal/sm"
	"dora/internal/trace"
	"dora/internal/wal"
	"dora/internal/wal/clog"
	"dora/internal/xct"
)

// ErrReadOnly reports a write action submitted to a replica.
var ErrReadOnly = errors.New("repl: replica is read-only")

// ErrPromoted reports stream delivery to a promoted replica.
var ErrPromoted = errors.New("repl: replica has been promoted")

// ErrFailed reports a replica that fail-stopped: an error after the
// delivered stream hardened (replay into the live engine, or persisting
// the stream itself) left its state behind its own log with no way to
// reconverge, so it refuses delivery, reads, and promotion rather than
// silently serving — or failing over to — divergent state.
var ErrFailed = errors.New("repl: replica failed")

// ErrWarming reports a read-only flow on a freshly bootstrapped replica
// whose heap still holds effects of transactions that were in flight at
// its truncation point. They resolve through the stream (the new
// primary's promotion ends or compensates each); reads are admitted once
// every such transaction has been resolved and applied.
var ErrWarming = errors.New("repl: replica warming up: bootstrapped state holds unresolved transactions")

// replicaLog is the wal.Manager of a live replica: a read-only view over
// the delivered stream. Appends are invalid by construction — a replica's
// only writer is the replay path, which appends raw delivered bytes
// directly to the store. Durable is the end of the hardened delivered
// stream, which the buffer pool's write-ahead rule and the ELR read-only
// wait both check; both are always already satisfied on a replica,
// because delivery hardens the stream before replay dirties any page or
// advances the commit horizon. (A plain log manager here would wedge:
// Force past its durable horizon waits for a flush daemon that has
// nothing to flush.)
type replicaLog struct {
	store wal.Store

	mu      sync.Mutex
	durable uint64
	waiters []replWaiter
}

type replWaiter struct {
	lsn uint64
	w   wal.Waiter
}

// Append panics: replicas never originate log records.
func (l *replicaLog) Append(*wal.Record) wal.LSN {
	panic("repl: append to a replica's log (replicas are read-only until promoted)")
}

// append persists one decoded-and-verified stream segment and advances
// the durable horizon.
func (l *replicaLog) append(data []byte) error {
	if err := l.store.Write(data); err != nil {
		return err
	}
	if err := l.store.Sync(); err != nil {
		return err
	}
	l.mu.Lock()
	l.durable += uint64(len(data))
	var fire []replWaiter
	keep := l.waiters[:0]
	for _, w := range l.waiters {
		if l.durable > w.lsn {
			fire = append(fire, w)
		} else {
			keep = append(keep, w)
		}
	}
	l.waiters = keep
	l.mu.Unlock()
	for _, w := range fire {
		w.w.Forced(nil)
	}
	return nil
}

// Force implements wal.Manager: it waits until delivery covers lsn.
func (l *replicaLog) Force(lsn wal.LSN) error {
	ch := make(chan error, 1)
	l.ForceAsync(lsn, wal.WaiterFunc(func(err error) { ch <- err }))
	return <-ch
}

// ForceAsync implements wal.AsyncForcer.
func (l *replicaLog) ForceAsync(lsn wal.LSN, w wal.Waiter) {
	l.mu.Lock()
	if l.durable > lsn {
		l.mu.Unlock()
		w.Forced(nil)
		return
	}
	l.waiters = append(l.waiters, replWaiter{lsn, w})
	l.mu.Unlock()
}

// FlushAll implements wal.Manager: the delivered stream is always hard.
func (l *replicaLog) FlushAll() error { return nil }

// Durable implements wal.Manager.
func (l *replicaLog) Durable() wal.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// Next implements wal.Manager: the next byte delivery will append.
func (l *replicaLog) Next() wal.LSN { return l.Durable() }

// Scan implements wal.Manager over the delivered stream.
func (l *replicaLog) Scan(fn func(*wal.Record) error) error {
	raw, err := l.store.Contents()
	if err != nil {
		return err
	}
	return wal.ScanBytes(raw, fn)
}

// Stats implements wal.Manager.
func (l *replicaLog) Stats() wal.Stats { return wal.Stats{} }

// Close implements wal.Manager.
func (l *replicaLog) Close() error { return nil }

// Options configures NewReplica.
type Options struct {
	// Frames is the replica's buffer-pool size (default 4096).
	Frames int
	// Disk backs the replica's pages. Nil means a fresh in-memory disk
	// (the replica builds its state purely from the stream). A rejoining
	// ex-primary passes its existing disk.
	Disk buffer.Disk
	// LogStore is the replica's own log store (default in-memory). A
	// rejoining ex-primary passes its tail-truncated store.
	LogStore wal.Store
	// DDL registers the schema (tables are code, not logged) — it must
	// create the same tables in the same order as the primary.
	DDL func(*sm.SM) error
	// Bootstrap replays the log store's existing content before going
	// live (rejoin after failover): analysis state stays open for the
	// incoming stream, and a disk page flushed beyond the retained log
	// is refused as divergent.
	Bootstrap bool
	// CS receives critical-section accounting (optional).
	CS *metrics.CriticalSectionStats
	// RedoWorkers sets the replica's redo applier count (see
	// sm.Options.RedoWorkers): 0 or 1 replays inline, >1 fans physical
	// records out to page-sharded appliers while delivery stays the
	// dispatcher. Each extent still becomes visible to readers atomically —
	// Deliver syncs the pool before releasing the state lock.
	RedoWorkers int
	// Tracer, when non-nil, samples deliveries for the latency tracer's
	// repl_deliver (stream hardening) and repl_apply (redo + barrier)
	// stages.
	Tracer *trace.Tracer
}

// Replica is a live backup: it ingests the primary's log stream, replays
// it into its own storage manager, and serves read-only flows at its
// replayed commit horizon. Promote turns it into a primary.
type Replica struct {
	sm       *sm.SM
	store    wal.Store
	rlog     *replicaLog
	replayer *sm.Replayer
	cs       *metrics.CriticalSectionStats
	tracer   *trace.Tracer

	// roleMu guards the promotion flip (and the sm.Log swap inside it):
	// delivery and read-only execution hold it shared, Promote holds it
	// exclusively. deliverMu additionally serializes deliveries so
	// replay stays single-writer. stateMu orders replay application
	// against read-only execution: Deliver applies each extent's
	// transaction-consistent prefix under the write side, read-only flows
	// run under the read side, so a reader observes the replayed state
	// only at extent boundaries — never mid-transaction.
	roleMu    sync.RWMutex
	deliverMu sync.Mutex
	stateMu   sync.RWMutex
	promoted  bool
	promoteAt uint64 // delivered end at promotion (the divergence point)

	// failMu guards failErr, the sticky fail-stop reason.
	failMu  sync.Mutex
	failErr error

	// Extents/Bytes count ingested traffic; Reads counts read-only flows
	// served.
	Extents metrics.Counter
	Bytes   metrics.Counter
	Reads   metrics.Counter
}

// NewReplica opens a replica. With a fresh disk and empty log store it
// starts empty and is populated entirely by catch-up + live shipping;
// with Bootstrap it first replays whatever the store already holds.
func NewReplica(opt Options) (*Replica, error) {
	if opt.LogStore == nil {
		opt.LogStore = wal.NewMemStore()
	}
	next, err := wal.InitStore(opt.LogStore)
	if err != nil {
		return nil, err
	}
	rlog := &replicaLog{store: opt.LogStore, durable: next}
	s, err := sm.Open(sm.Options{
		Frames: opt.Frames, Disk: opt.Disk, Log: rlog, CS: opt.CS,
		RedoWorkers: opt.RedoWorkers,
		Spans:       opt.Tracer,
	})
	if err != nil {
		return nil, err
	}
	if opt.DDL != nil {
		if err := opt.DDL(s); err != nil {
			return nil, err
		}
	}
	r := &Replica{sm: s, store: opt.LogStore, rlog: rlog, cs: opt.CS, tracer: opt.Tracer}
	r.replayer = sm.NewReplayer(s)
	if opt.Bootstrap {
		if _, err := r.replayer.Bootstrap(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// SM exposes the replica's storage manager (read paths, monitoring).
func (r *Replica) SM() *sm.SM { return r.sm }

// Expected returns the LSN from which the replica wants the stream.
func (r *Replica) Expected() uint64 { return r.rlog.Durable() }

// AppliedLSN returns the end LSN of the last record applied — the
// transaction-consistent horizon reads observe. It can trail Expected by
// the records of transactions whose commit or end has not arrived yet.
func (r *Replica) AppliedLSN() uint64 { return r.replayer.AppliedLSN() }

// CommitHorizon returns the replayed-commit horizon: the highest commit
// LSN whose transaction's effects read-only sessions can observe.
func (r *Replica) CommitHorizon() uint64 { return r.sm.LastCommitLSN() }

// OpenTxns returns the number of in-flight transactions in the stream.
func (r *Replica) OpenTxns() int { return r.replayer.OpenTxns() }

// Promoted reports whether the replica has been promoted.
func (r *Replica) Promoted() bool {
	r.roleMu.RLock()
	defer r.roleMu.RUnlock()
	return r.promoted
}

// PromotionLSN returns the delivered end at promotion — the divergence
// point an ex-primary must tail-truncate its own log at before rejoining.
func (r *Replica) PromotionLSN() uint64 {
	r.roleMu.RLock()
	defer r.roleMu.RUnlock()
	return r.promoteAt
}

// Deliver ingests one stream extent at base. Only the decodable whole-
// record prefix is persisted and replayed — a torn extent (a primary
// that died mid-group) contributes nothing past its last complete
// record, so replay can never apply half a group. Duplicate and
// overlapping deliveries are truncated against the current horizon
// (retries after a reconnect are idempotent); a gap is an error. Returns
// the replica's new acked LSN: the end of its hardened stream.
//
// Any error after the extent hardens fail-stops the replica: its log is
// then ahead of its replayed state with no redelivery path (the stream
// dedupes against the hardened horizon), so continuing to serve reads or
// accept promotion would expose silently divergent state.
func (r *Replica) Deliver(base uint64, data []byte) (uint64, error) {
	r.deliverMu.Lock()
	defer r.deliverMu.Unlock()
	r.roleMu.RLock()
	defer r.roleMu.RUnlock()
	if r.promoted {
		return r.rlog.Durable(), ErrPromoted
	}
	if err := r.Failed(); err != nil {
		return r.rlog.Durable(), err
	}
	exp := r.rlog.Durable()
	if base > exp {
		return exp, fmt.Errorf("repl: stream gap: extent base %d, expected %d", base, exp)
	}
	if base < exp {
		if base+uint64(len(data)) <= exp {
			return exp, nil // pure duplicate
		}
		data = data[exp-base:]
		base = exp
	}
	var recs []*wal.Record
	consumed, err := wal.DecodeStream(base, data, func(rec *wal.Record) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return exp, err
	}
	if consumed == 0 {
		return exp, nil
	}
	// Sampled deliveries time the replica lag stages: hardening the
	// extent into our log (repl_deliver), then redo-applying it through
	// the barrier (repl_apply).
	var t0 time.Time
	traced := r.tracer.Enabled() && r.tracer.SampleHop()
	if traced {
		t0 = time.Now()
	}
	// Harden before applying: the commit horizon must never run ahead of
	// the replica's own durability.
	if err := r.rlog.append(data[:consumed]); err != nil {
		return exp, r.fail(err)
	}
	if traced {
		now := time.Now()
		r.tracer.RecordSpan(trace.StageReplDeliver, -1, now.Sub(t0))
		t0 = now
	}
	r.stateMu.Lock()
	for _, rec := range recs {
		if err := r.replayer.Apply(rec); err != nil {
			r.stateMu.Unlock()
			return r.rlog.Durable(), r.fail(err)
		}
	}
	// Extent barrier: wait until every applier has
	// finished and the dispatcher has consumed the completion stream before
	// readers are readmitted — reads only ever observe extent-consistent
	// states. An applier error fail-stops the replica like any replay error.
	if err := r.replayer.Sync(); err != nil {
		r.stateMu.Unlock()
		return r.rlog.Durable(), r.fail(err)
	}
	r.stateMu.Unlock()
	if traced {
		r.tracer.RecordSpan(trace.StageReplApply, -1, time.Since(t0))
	}
	r.Extents.Inc()
	r.Bytes.Add(int64(consumed))
	return r.rlog.Durable(), nil
}

// fail records the replica's first fail-stop cause and returns the
// wrapped error subsequent operations will see.
func (r *Replica) fail(cause error) error {
	r.failMu.Lock()
	if r.failErr == nil {
		r.failErr = cause
	}
	r.failMu.Unlock()
	return r.Failed()
}

// Failed returns the sticky fail-stop error, or nil while the replica is
// healthy. A failed replica refuses delivery, read-only flows, and
// promotion; it must be rebuilt (full resync) to rejoin.
func (r *Replica) Failed() error {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	if r.failErr == nil {
		return nil
	}
	return fmt.Errorf("%w: %v", ErrFailed, r.failErr)
}

// Warming returns the number of bootstrapped-but-unresolved transactions
// still gating read-only flows (see ErrWarming); zero on a healthy live
// replica.
func (r *Replica) Warming() int { return r.replayer.Warming() }

// ExecReadOnly runs a read-only flow against the replica's replayed
// state, serially within the calling worker: reads observe the commit
// horizon replay has reached (bounded staleness — the lag is primary
// commit horizon minus replica commit horizon). Replay applies only
// whole, resolved transactions (and does so exclusively against this
// path via stateMu), so a flow observes committed state only — a
// transaction whose commit record has not been replayed is entirely
// invisible, even if its update records already hardened here. Write
// actions are refused, as are flows while the replica is failed or
// warming after a bootstrap. The ELR read-only completion rule runs
// unchanged in the storage manager; on a replica it never waits, because
// delivery hardens the stream before replay makes it visible.
func (r *Replica) ExecReadOnly(worker int, flow *xct.Flow) error {
	r.roleMu.RLock()
	defer r.roleMu.RUnlock()
	if r.promoted {
		return ErrPromoted
	}
	if err := r.Failed(); err != nil {
		return err
	}
	r.stateMu.RLock()
	defer r.stateMu.RUnlock()
	if r.replayer.Warming() > 0 {
		return ErrWarming
	}
	t := r.sm.Begin()
	ses := r.sm.Session(worker)
	env := flow.Env(t, ses)
	for pi := range flow.Phases {
		for _, a := range flow.Phases[pi].Actions {
			if a.Mode == xct.Write {
				_ = r.sm.Rollback(t)
				return ErrReadOnly
			}
			if a.Run == nil {
				continue
			}
			if err := a.Run(&env); err != nil {
				_ = r.sm.Rollback(t)
				return err
			}
		}
	}
	r.Reads.Inc()
	return r.sm.Commit(t)
}

// Promote brings the replica up as a primary at the end of its delivered
// stream: an appendable group-commit log manager is adopted over the
// same store (appends continue at the delivered end), the replayer
// rolls back in-flight losers with CLRs, and the storage manager
// returns writable. Unacked
// primary tail beyond what was delivered is implicitly discarded — it
// never reached this log, and a rejoining ex-primary must truncate it.
func (r *Replica) Promote() (*sm.SM, sm.PromoteStats, error) {
	r.roleMu.Lock()
	defer r.roleMu.Unlock()
	if r.promoted {
		return r.sm, sm.PromoteStats{}, fmt.Errorf("repl: already promoted")
	}
	if err := r.Failed(); err != nil {
		// A failed replica's state trails its own hardened log; promoting
		// it would surface that divergence as the new primary's history.
		return nil, sm.PromoteStats{}, err
	}
	r.promoteAt = r.rlog.Durable()
	lg, err := clog.New(r.store, r.cs)
	if err != nil {
		return nil, sm.PromoteStats{}, err
	}
	r.sm.AdoptLog(lg)
	st, err := r.replayer.Promote()
	if err != nil {
		return nil, st, r.fail(err)
	}
	r.promoted = true
	return r.sm, st, nil
}

// Redone returns the count of physical operations replayed.
func (r *Replica) Redone() int64 { return r.replayer.Redone() }

// RedoStats exposes the replayer's applier-pool monitoring view (zero
// workers when replaying inline or after promotion retired the pool).
func (r *Replica) RedoStats() sm.RedoStats { return r.replayer.RedoStats() }

// Close shuts the replica down: the applier pool drains and joins first,
// then the storage manager closes.
func (r *Replica) Close() error {
	r.replayer.Close()
	return r.sm.Close()
}

// ReadEngine adapts a replica to the engine.Engine interface so workload
// drivers can point read-only mixes at it.
type ReadEngine struct{ R *Replica }

// Name implements engine.Engine.
func (e ReadEngine) Name() string { return "replica-read" }

// Exec implements engine.Engine.
func (e ReadEngine) Exec(worker int, flow *xct.Flow) error {
	return e.R.ExecReadOnly(worker, flow)
}

// Close implements engine.Engine.
func (e ReadEngine) Close() error { return nil }

// assert interface satisfaction.
var (
	_ wal.Manager     = (*replicaLog)(nil)
	_ wal.AsyncForcer = (*replicaLog)(nil)
)
