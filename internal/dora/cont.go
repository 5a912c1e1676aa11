package dora

import (
	"sync/atomic"
	"time"

	"dora/internal/btree"
	"dora/internal/trace"
	"dora/internal/xct"
)

// Continuation-passing ships: the execution model of every partition
// worker.
//
// A cross-partition operation does not park its sender for the round
// trip. The sender enqueues a contMsg — the operation plus a
// continuation plus the hop chain — on the owner's inbox and immediately
// returns to draining its own queue. The owner runs the operation on its
// thread and enqueues the continuation BACK on the sender's inbox (a
// kontMsg), where the suspended action resumes. The phases of a
// transaction still meet only at rendezvous points: an action that
// suspends reports to its RVP from the continuation, and the RVP's
// countdown — not a parked goroutine — triggers the next phase or the
// commit decision (paper §1.1's asynchronous action model, end to end).
//
// Because no sender is ever parked, arbitrary action bodies are
// deadlock-safe by construction: a cyclic ship graph round-trips
// messages instead of wedging workers, which retires the debug-mode
// cycle detector's fail-fast job (it still diagnoses cycles, see
// shipcheck.go). It also changes the rebalance interplay: a worker with
// a suspended action keeps processing split/evacuate messages, so
// repartitioning does not rely on senders being parked — continuation
// delivery follows the forwarding chain a merge leaves behind.

// contReply is the completion side shared by every continuation ship:
// k(ok) is invoked exactly once, delivered through home (the sender's
// inbox) when one is set, inline on the completing thread otherwise.
// failShip (the never-silently-dropped contract of the shipped
// interface) is a failed delivery: the worker retired without running
// the op and the continuation must re-resolve.
type contReply struct {
	home btree.ContExec
	k    func(ok bool)
	path []shipHop
}

func (m *contReply) deliver(ok bool) {
	if m.home != nil {
		k := m.k
		m.home(func() { k(ok) })
		return
	}
	m.k(ok)
}

func (m *contReply) failShip() { m.deliver(false) }

// contMsg ships a foreign access-path operation with a continuation
// instead of a parked sender: the owner runs fn with its own token,
// then delivers the reply. at is the enqueue time of a hop the latency
// tracer sampled (zero otherwise); the receiving worker turns it into a
// ship-flight span.
type contMsg struct {
	contReply
	fn func(tok *btree.Owner)
	at time.Time
}

// maintContMsg is contMsg for background-maintenance operations (the
// continuation-passing counterpart of maintMsg): fn runs with an
// OwnerCtx view of the partition.
type maintContMsg struct {
	contReply
	fn func(*OwnerCtx)
}

// kontMsg delivers a completed foreign operation's continuation to the
// thread it belongs on — the suspended sender's inbox. Continuations
// must never be lost (a lost one strands its transaction's RVP), so
// dispose forwards them along the merge chain and, with no successor
// left (engine shutdown, access paths already released), runs them
// inline. at is a sampled hop's enqueue time (see contMsg.at).
type kontMsg struct {
	k  func()
	at time.Time
}

// deliverHome enqueues k on this partition's inbox, following the
// forwarding chain a merge leaves behind; with every hop retired it runs
// k inline (shutdown fall-through: the subtrees are back on the shared
// path, so the continuation's accesses need no owner thread).
func (p *partition) deliverHome(k func()) {
	m := &kontMsg{k: k}
	if p.eng.cfg.Tracer.SampleHop() {
		m.at = time.Now()
	}
	for q := p; q != nil; q = q.fwd.Load() {
		if q.in.pushChecked(m) {
			return
		}
	}
	k()
}

// ownerExecAsync is the continuation-passing hook installed into claimed
// subtrees next to ownerExec: it ships fn to this worker's queue and
// returns immediately; the worker delivers the continuation through the
// sender's home executor after running fn. In debug mode the hop chain
// travels with the message and a cyclic ship is diagnosed (non-fatally —
// a non-blocking sender cannot wedge) before it is enqueued.
func (p *partition) ownerExecAsync() btree.OwnerExecAsync {
	return func(home btree.ContExec, fn func(tok *btree.Owner), done func(ok bool)) bool {
		m := &contMsg{contReply: contReply{home: home, k: done}, fn: fn}
		if p.eng.cfg.Tracer.SampleHop() {
			m.at = time.Now()
		}
		if det := p.eng.shipDet; det != nil {
			m.path = det.extendPath(p.worker, false)
		}
		return p.in.pushChecked(m)
	}
}

// actionHost implements xct.AsyncHost for one action execution: the
// bridge between an action body that wants to suspend on a foreign
// operation and the partition worker that must keep draining its inbox
// meanwhile.
type actionHost struct {
	p         *partition
	am        *actionMsg
	suspended bool
}

// Home implements xct.AsyncHost.
func (h *actionHost) Home() btree.ContExec { return h.p.homeExec }

// Suspend implements xct.AsyncHost: it detaches the action from the
// worker's thread. The engine ignores the body's return and the worker
// moves on; the returned resume reports the action's outcome to its RVP
// (exactly once — duplicate calls are swallowed, since a double report
// would corrupt the rendezvous countdown).
func (h *actionHost) Suspend() func(error) {
	h.suspended = true
	p, am := h.p, h.am
	p.SuspendedNow.Add(1)
	// Traced transactions time the suspension: Suspend → resume is the
	// foreign round trip (ship out, remote exec, kont back) as the
	// transaction experiences it.
	tt := am.run.txn.Trace
	var t0 time.Time
	if tt != nil {
		t0 = time.Now()
	}
	done := new(atomic.Bool)
	return func(err error) {
		if !done.CompareAndSwap(false, true) {
			return
		}
		if tt != nil {
			tt.Span(trace.StageSuspend, p.worker, t0, time.Since(t0))
		}
		p.SuspendedNow.Add(-1)
		p.eng.report(am.rvp, err)
	}
}

var _ xct.AsyncHost = (*actionHost)(nil)
