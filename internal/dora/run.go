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
// without its dispatch arrays or its messages spilling to the heap.
const phaseInline = 4

// flowRun is one in-flight transaction: the flow graph being executed,
// its storage transaction, and completion plumbing. Actions of the same
// run execute on several partition workers concurrently, so all mutable
// state is synchronized.
//
// A run is the transaction's one engine allocation: it carries the
// storage transaction, the client's callback, the execution-gate release
// flag, the release message its commit broadcasts and phase 0's
// rendezvous point, with phase 0's action and claim messages right
// behind it in the same object (soloRun, wideRun), and it is its own
// commit completion (Complete). Each later phase adds one rendezvous
// point. Runs cross goroutines and are never reused.
type flowRun struct {
	eng  *Dora
	flow *xct.Flow
	// txn is the storage transaction, started in place (sm.BeginInto).
	txn tx.Txn
	// done delivers the final verdict to the client exactly once, through
	// finish (the commit completion or the rollback continuation calls
	// it).
	done func(error)
	// gated is set while the run holds the engine's execution gate
	// shared (ExecAsync); finish releases it exactly once, even if a
	// panicking dispatch already did.
	gated atomic.Bool
	// failedFlag sits next to gated so the two 4-byte flags share a word
	// (see rvp on the size class).
	failedFlag atomic.Bool

	mu  sync.Mutex
	err error
	// tables lists the touched tables (tableBuf until it spills).
	tables   []uint32
	tableBuf [phaseInline]uint32

	// rel is the release message broadcast to every partition of the
	// touched tables (read-only once built, so one copy serves them all).
	rel releaseMsg
	// ph0 is phase 0's rendezvous point; later phases allocate their own
	// (phaseRVP).
	ph0 rvp
}

// Message slots come in a few sizes, so a run or rendezvous point keeps
// no more empty slots than it must: a run has one, two or phaseInline,
// a later phase one or phaseInline. Most TATP transactions send one
// message per phase, a few two, and TPC-B's first phase four; four
// slots for every run would make a single-action run two size classes
// bigger.
type (
	soloRun struct {
		flowRun
		msgBuf [1]actionMsg
	}
	duoRun struct {
		flowRun
		msgBuf [2]actionMsg
	}
	wideRun struct {
		flowRun
		msgBuf [phaseInline]actionMsg
	}
	soloPhase struct {
		rvp
		msgBuf [1]actionMsg
	}
	widePhase struct {
		rvp
		msgBuf [phaseInline]actionMsg
	}
)

// newFlowRun builds a run with phase 0's message slots and starts its
// storage transaction.
func newFlowRun(e *Dora, flow *xct.Flow, done func(error)) *flowRun {
	var run *flowRun
	var slots []actionMsg
	switch n := phase0Msgs(flow); {
	case n <= 1:
		r := new(soloRun)
		run, slots = &r.flowRun, r.msgBuf[:]
	case n == 2:
		r := new(duoRun)
		run, slots = &r.flowRun, r.msgBuf[:]
	default:
		r := new(wideRun)
		run, slots = &r.flowRun, r.msgBuf[:]
	}
	run.eng, run.flow, run.done, run.ph0.msgs = e, flow, done, slots
	e.sm.BeginInto(&run.txn)
	run.rel.txn = run.txn.ID
	return run
}

// phase0Msgs bounds the messages phase 0 sends: its actions plus a claim
// for each later-phase action with a static key (dispatchPhase claims
// those whose key field is the partitioning field).
func phase0Msgs(flow *xct.Flow) int {
	n := len(flow.Phases[0].Actions)
	for _, ph := range flow.Phases[1:] {
		for _, a := range ph.Actions {
			if !a.LateKey {
				n++
			}
		}
	}
	return n
}

// Complete implements tx.Completion: the storage manager calls it once
// the run's commit record is durable, or with the log's failure (the log
// is dead then and the locks already released, so physical rollback is
// pointless: the client gets the abort).
func (r *flowRun) Complete(err error) {
	if err != nil {
		r.eng.Aborted.Inc()
	} else {
		r.eng.Committed.Inc()
	}
	r.finish(err)
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
// that failed to route, the routed targets and their messages, each with
// inline room for phaseInline entries.
//
// The 4-byte fields come first and pair up, so a single-action run (see
// soloRun) stays within the 1024-byte size class.
type rvp struct {
	run       *flowRun
	phase     int32
	remaining atomic.Int32

	// pending counts the routing loop plus every in-flight asynchronous
	// key resolution; whoever brings it to zero enqueues the phase.
	pending atomic.Int32
	skipBuf [phaseInline]bool
	// at is the dispatch time: each of the phase's messages reads it as
	// its queue-wait origin and local-timeout clock (claims never time
	// out), so the messages carry no clock of their own.
	at      time.Time
	env     xct.Env // resolver environment (coordinator session)
	rks     []int64
	skip    []bool
	targets []dispatchTarget
	rkBuf   [phaseInline]int64
	tgtBuf  [phaseInline]dispatchTarget
	// msgs are the message slots not yet taken (newMsg).
	msgs []actionMsg
}

// newMsg returns a zero message for one of the phase's targets: an
// inline slot while one is left, a heap object past phaseInline. Only
// the goroutine routing the phase calls it.
func (r *rvp) newMsg() *actionMsg {
	if len(r.msgs) == 0 {
		return new(actionMsg)
	}
	m := &r.msgs[0]
	r.msgs = r.msgs[1:]
	return m
}

func newRVP(run *flowRun, phase, count int) *rvp {
	r := &rvp{}
	r.init(run, phase, count)
	return r
}

func (r *rvp) init(run *flowRun, phase, count int) {
	r.run, r.phase = run, int32(phase)
	r.remaining.Store(int32(count))
}

// phaseRVP returns the rendezvous point for a phase of n actions, its
// dispatch arrays sized for them (targets spill on append once claims
// push them past phaseInline, messages once the slots run out).
func (run *flowRun) phaseRVP(phase, n int) *rvp {
	r := &run.ph0
	switch {
	case phase == 0:
	case n == 1:
		sp := new(soloPhase)
		r, sp.msgs = &sp.rvp, sp.msgBuf[:]
	default:
		wp := new(widePhase)
		r, wp.msgs = &wp.rvp, wp.msgBuf[:]
	}
	r.init(run, phase, n)
	r.rks, r.skip, r.targets = r.rkBuf[:], r.skipBuf[:], r.tgtBuf[:0]
	if n > phaseInline {
		r.rks, r.skip = make([]int64, n), make([]bool, n)
	}
	r.rks, r.skip = r.rks[:n], r.skip[:n]
	return r
}
