package dora

import (
	"sync/atomic"
	"time"

	"dora/internal/btree"
	"dora/internal/trace"
	"dora/internal/xct"
)

// Owner-thread ships: the one way work other than a routed action
// reaches a worker's thread.
//
// A cross-partition operation does not park its sender. The sender
// enqueues a shipMsg — the operation plus a continuation plus the hop
// chain — on the owner's inbox and immediately returns to draining its
// own queue. The owner runs the operation on its thread and enqueues the
// continuation BACK on the sender's inbox (a kontMsg), where the
// suspended action resumes. The phases of a transaction still meet only
// at rendezvous points: an action that suspends reports to its RVP from
// the continuation, and the RVP's countdown — not a parked goroutine —
// triggers the next phase or the commit decision (paper §1.1's
// asynchronous action model, end to end).
//
// A caller that is not a worker (a plain session, ExecOnOwner, the page
// cleaner's write-back) waits for the same continuation on a channel
// (shipWait), the way Exec is ExecAsync plus a channel wait. No worker
// ever parks on a ship, so arbitrary action bodies are deadlock-safe by
// construction: a cyclic ship graph round-trips messages instead of
// wedging workers (shipcheck.go diagnoses it), and a worker with a
// suspended action keeps processing topology messages while its
// continuation follows the forwarding chain a merge leaves behind.

// contReply is the completion side of a ship: k(ok) is invoked exactly
// once, delivered through home (the sender's inbox) when one is set,
// inline on the completing thread otherwise. ok=false means the worker
// retired without running the op and the sender must re-resolve.
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

// shipMsg ships an operation to the worker that owns its data: the owner
// runs fn with its own token, then delivers the reply. access marks a
// foreign access-path op, which the running worker counts as Shipped
// when its sender is parked and ContShipped otherwise; maintenance and
// snapshot ops count nowhere. parked says the sender waits for the reply
// (shipWait); cyc carries a cycle a deeper hop detected back to it. at
// is the enqueue time of a hop the latency tracer sampled (zero
// otherwise); the receiving worker turns it into a ship-flight span.
type shipMsg struct {
	contReply
	fn     func(tok *btree.Owner)
	at     time.Time
	access bool
	parked bool
	cyc    *shipCycleError
}

// kontMsg delivers a completed foreign operation's continuation to the
// thread it belongs on — the suspended sender's inbox. Continuations
// must never be lost (a lost one strands its transaction's RVP), so
// dispose forwards them along the merge chain and, with no successor
// left (engine shutdown, access paths already released), runs them
// inline. at is a sampled hop's enqueue time (see shipMsg.at).
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
	if !p.forwardFrom(m) {
		k()
	}
}

// forwardFrom pushes m onto the first live inbox of the chain that
// starts at p and follows the merge forwarding links; false when every
// hop has retired.
func (p *partition) forwardFrom(m msg) bool {
	for q := p; q != nil; q = q.fwd.Load() {
		if q.in.pushChecked(m) {
			return true
		}
	}
	return false
}

// ship enqueues m on this worker's inbox: it samples the hop for the
// latency tracer and, in debug mode, vets the hop with the ship-cycle
// detector before it is enqueued. false means the worker retired (inbox
// closed) and the sender must re-resolve; m's continuation never runs
// then.
func (p *partition) ship(m *shipMsg) bool {
	if p.eng.cfg.Tracer.SampleHop() {
		m.at = time.Now()
	}
	if det := p.eng.shipDet; det != nil {
		m.path = det.extendPath(p.worker, m.parked)
	}
	return p.in.pushChecked(m)
}

// shipWait ships m and parks the caller until the worker ran it (true)
// or retired without running it (false: re-resolve). A cycle detected
// by a deeper hop comes back in m.cyc and is re-raised here, so the
// diagnostic unwinds hop by hop to the chain's origin.
func (p *partition) shipWait(m *shipMsg) bool {
	done := make(chan bool, 1)
	m.parked = true
	m.k = func(ok bool) { done <- ok }
	if !p.ship(m) {
		return false
	}
	ok := <-done
	if m.cyc != nil {
		panic(m.cyc)
	}
	return ok
}

// accessExec and accessExecAsync are the hooks installed into claimed
// subtrees (btree.OwnerExec and btree.OwnerExecAsync): a foreign
// access-path operation ships here with a parked sender or with a
// continuation delivered through the sender's home executor.
func (p *partition) accessExec(fn func(tok *btree.Owner)) bool {
	return p.shipWait(&shipMsg{fn: fn, access: true})
}

func (p *partition) accessExecAsync(home btree.ContExec, fn func(tok *btree.Owner), done func(ok bool)) bool {
	return p.ship(&shipMsg{contReply: contReply{home: home, k: done}, fn: fn, access: true})
}

// onOwner adapts a maintenance operation to a ship body: it runs with an
// OwnerCtx view of p (ships are never forwarded, so they run on the
// worker they were shipped to).
func (p *partition) onOwner(fn func(*OwnerCtx)) func(*btree.Owner) {
	return func(*btree.Owner) { fn(&OwnerCtx{p: p}) }
}

// actionHost implements xct.AsyncHost for one action execution: the
// bridge between an action body that wants to suspend on a foreign
// operation and the partition worker that must keep draining its inbox
// meanwhile. It lives inside its actionMsg.
type actionHost struct {
	p         *partition
	am        *actionMsg
	suspended bool
	// resumed swallows duplicate resume calls.
	resumed atomic.Bool
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
	return func(err error) {
		if !h.resumed.CompareAndSwap(false, true) {
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
