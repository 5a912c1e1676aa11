package dora

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dora/internal/tx"
	"dora/internal/xct"
)

// ErrLocalTimeout reports an action that waited too long in a partition's
// local lock table (cross-partition conflict the canonical enqueue order
// could not serialize); the transaction aborts and may be retried.
var ErrLocalTimeout = errors.New("dora: local lock wait timeout")

// RollbackError reports an aborted transaction whose undo failed: the
// storage manager could not apply one of its compensations (Err says
// why). The transaction is neither committed nor rolled back; its
// partitions keep its local locks, so conflicting transactions time out
// with ErrLocalTimeout instead of seeing the half-undone state.
type RollbackError struct {
	Txn uint64
	Err error
}

func (e *RollbackError) Error() string {
	return fmt.Sprintf("dora: rollback of txn %d failed: %v", e.Txn, e.Err)
}

func (e *RollbackError) Unwrap() error { return e.Err }

// phaseInline is the number of actions (plus claims) a phase dispatches
// without its dispatch arrays spilling to the heap.
const phaseInline = 4

// flowRun is one in-flight transaction: the flow graph being executed,
// its storage transaction, and completion plumbing. Actions of the same
// run execute on several partition workers concurrently, so all mutable
// state is synchronized.
//
// A run is one allocation: it carries the client's callback, the
// execution-gate release flag, the release message its commit broadcasts
// and phase 0's rendezvous point inline. Runs cross goroutines and are
// never reused.
type flowRun struct {
	eng  *Dora
	flow *xct.Flow
	txn  *tx.Txn
	// done delivers the final verdict to the client exactly once, through
	// finish (the commit completion or the rollback continuation calls
	// it).
	done func(error)
	// gated is set while the run holds the engine's execution gate
	// shared (ExecAsync); finish releases it exactly once, even if a
	// panicking dispatch already did.
	gated atomic.Bool

	mu  sync.Mutex
	err error
	// tables lists the touched tables (tableBuf until it spills).
	tables   []uint32
	tableBuf [phaseInline]uint32

	failedFlag atomic.Bool

	// rel is the release message broadcast to every partition of the
	// touched tables (read-only once built, so one copy serves them all).
	rel releaseMsg
	// ph0 is phase 0's rendezvous point; later phases allocate their own.
	ph0 rvp
}

func newFlowRun(e *Dora, flow *xct.Flow, txn *tx.Txn, done func(error)) *flowRun {
	return &flowRun{
		eng:  e,
		flow: flow,
		txn:  txn,
		done: done,
		rel:  releaseMsg{txn: txn.ID},
	}
}

// finish releases the execution gate (once), closes the transaction's
// trace and delivers the verdict.
func (r *flowRun) finish(err error) {
	r.releaseGate()
	r.txn.Trace.Finish(err)
	r.done(err)
}

// releaseGate drops the run's shared hold on the execution gate, if it
// still has one.
func (r *flowRun) releaseGate() {
	if r.gated.CompareAndSwap(true, false) {
		r.eng.execGate.RUnlock()
	}
}

// fail records the first error; later errors are dropped.
func (r *flowRun) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	r.failedFlag.Store(true)
}

// failed reports whether the run has aborted.
func (r *flowRun) failed() bool { return r.failedFlag.Load() }

// firstErr returns the recorded error.
func (r *flowRun) firstErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// addTable records that the run dispatched work to a table (its
// partitions receive the release broadcast at the end).
func (r *flowRun) addTable(id uint32) {
	r.mu.Lock()
	if !slices.Contains(r.tables, id) {
		if r.tables == nil {
			r.tables = r.tableBuf[:0]
		}
		r.tables = append(r.tables, id)
	}
	r.mu.Unlock()
}

// tableIDs returns the touched tables. The release broadcast reads it
// after the last dispatch, so the slice no longer changes.
func (r *flowRun) tableIDs() []uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tables
}

// rvp is a rendezvous point: the shared countdown between the actions of
// one phase (paper §1.1: "initialized to the number of threads that have
// to report to them... The last thread to report on a rendezvous point
// decides whether the corresponding transaction should commit or abort,
// or whether a new set of actions needs to be submitted").
//
// It also carries the phase's dispatch state, so a dispatched phase is
// one allocation (none for phase 0, which lives in its flowRun): the
// routing countdown, the resolved route keys, the skip bits of actions
// that failed to route, and the routed targets, each with inline room
// for phaseInline entries.
type rvp struct {
	run       *flowRun
	phase     int
	remaining atomic.Int32

	// pending counts the routing loop plus every in-flight asynchronous
	// key resolution; whoever brings it to zero enqueues the phase.
	pending atomic.Int32
	at      time.Time // dispatch time (each action's queue-wait origin)
	env     xct.Env   // resolver environment (coordinator session)
	rks     []int64
	skip    []bool
	targets []dispatchTarget
	rkBuf   [phaseInline]int64
	skipBuf [phaseInline]bool
	tgtBuf  [phaseInline]dispatchTarget
}

func newRVP(run *flowRun, phase, count int) *rvp {
	r := &rvp{}
	r.init(run, phase, count)
	return r
}

func (r *rvp) init(run *flowRun, phase, count int) {
	r.run, r.phase = run, phase
	r.remaining.Store(int32(count))
}

// phaseRVP returns the rendezvous point for a phase of n actions, its
// dispatch arrays sized for them (targets spill on append once claims
// push them past phaseInline).
func (run *flowRun) phaseRVP(phase, n int) *rvp {
	r := &run.ph0
	if phase > 0 {
		r = new(rvp)
	}
	r.init(run, phase, n)
	r.rks, r.skip, r.targets = r.rkBuf[:], r.skipBuf[:], r.tgtBuf[:0]
	if n > phaseInline {
		r.rks, r.skip = make([]int64, n), make([]bool, n)
	}
	r.rks, r.skip = r.rks[:n], r.skip[:n]
	return r
}
