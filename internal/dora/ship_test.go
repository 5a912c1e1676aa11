package dora

import (
	"testing"
	"time"

	"dora/internal/btree"
	"dora/internal/catalog"
	"dora/internal/sm"
	"dora/internal/storage"
	"dora/internal/tuple"
	"dora/internal/tx"
	"dora/internal/xct"
)

// verdict is a staged flow's outcome and the session its action body
// ran on (which worker executed it).
type verdict struct {
	ses *sm.Session
	err error
}

// stageRead builds the message dispatchPhase would enqueue for a
// one-action flow reading key of tbl, with its run and rendezvous point
// wired; the channel delivers the flow's verdict.
func stageRead(e *Dora, tbl *catalog.Table, key int64) (*actionMsg, <-chan verdict) {
	out := make(chan verdict, 1)
	var ran *sm.Session
	flow := xct.NewFlow("staged-read").AddPhase(&xct.Action{
		Table: tbl.Name, KeyField: "id", Key: key, Mode: xct.Read,
		Run: func(env *xct.Env) error {
			ran = env.Ses
			_, err := env.Ses.Read(env.Txn, tbl, key)
			return err
		},
	})
	run := newFlowRun(e, flow, func(err error) { out <- verdict{ran, err} })
	run.addTable(tbl.ID)
	r := newRVP(run, 0, 1)
	r.at = time.Now()
	am := &actionMsg{act: flow.Phases[0].Actions[0], run: run, rvp: r, routeKey: key}
	return am, out
}

// awaitVerdict fails the test by name when a staged flow does not
// finish within 5 s (a lost action strands its flow forever).
func awaitVerdict(t *testing.T, what string, ch <-chan verdict) verdict {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: flow never finished (action lost)", what)
		return verdict{}
	}
}

// TestEnqueueReresolvesMergedTarget: dispatchPhase resolves each
// action's owner and only later locks the target inboxes. A merge that
// retires the resolved owner in that window must not strand the action
// in the closed inbox: the enqueue re-resolves and the flow commits on
// the adopter.
func TestEnqueueReresolvesMergedTarget(t *testing.T) {
	_, tbl, e := rig(t, 100, 2)
	ranges := e.Router("accounts").Ranges()
	key := ranges[1].Lo
	src := e.ownerOf(tbl, key)
	dst := e.byWorker[ranges[0].Part]
	am, out := stageRead(e, tbl, key)
	if err := e.MergePartition("accounts", src.worker, dst.worker); err != nil {
		t.Fatal(err)
	}
	// The retired forwarder has exited: an action appended to its closed
	// inbox would have nobody left to forward it.
	<-src.exited
	e.enqueuePhase([]dispatchTarget{{tbl: tbl, p: src, m: am}})
	v := awaitVerdict(t, "enqueue to a merged-away partition", out)
	if v.err != nil {
		t.Fatalf("flow failed: %v", v.err)
	}
	if v.ses != dst.ses {
		t.Fatal("flow did not run on the adopting partition")
	}
}

// runOn runs fn on p's worker thread and waits for it.
func runOn(p *partition, fn func(*partition)) {
	done := make(chan struct{})
	p.in.push(ctlMsg(func(q *partition) {
		fn(q)
		close(done)
	}))
	<-done
}

// writeLock builds a body-less exclusive lock request on key for txn.
func writeLock(tbl *catalog.Table, txn *tx.Txn, key int64) *actionMsg {
	return &actionMsg{
		act:      &xct.Action{Table: tbl.Name, KeyField: "id", Key: key, Mode: xct.Write},
		run:      &flowRun{txn: tx.Txn{ID: txn.ID}},
		routeKey: key,
		claim:    true,
	}
}

// TestMergeForwardsBacklogBeforeSplit: a release queued on a merged-away
// partition behind its evacuation must reach the adopter before the
// merge returns. Otherwise a split of the adopter issued right after the
// merge hands the committed transaction's adopted lock to the new
// partition ahead of the forwarded release, and the lock leaks.
func TestMergeForwardsBacklogBeforeSplit(t *testing.T) {
	s, tbl, e := rig(t, 100, 2)
	ranges := e.Router("accounts").Ranges()
	key := ranges[1].Lo
	src := e.ownerOf(tbl, key)
	dst := e.byWorker[ranges[0].Part]
	holder := s.Begin()
	runOn(src, func(p *partition) {
		if !p.locks.acquire(writeLock(tbl, holder, key)) {
			t.Error("holder's lock not granted")
		}
	})

	// Park src so the merge's evacuation queues behind it, then stage the
	// holder's release behind the evacuation. Ahead of the release sits a
	// continuation ship with no home: the forwarder fails it back inline,
	// and its continuation stalls the forwarder until the split is issued
	// (or 100 ms pass, when the merge rightly waits for the forwarder).
	gate, parked := make(chan struct{}), make(chan struct{})
	src.in.push(ctlMsg(func(*partition) {
		close(parked)
		<-gate
	}))
	<-parked
	merged := make(chan error, 1)
	go func() { merged <- e.MergePartition("accounts", src.worker, dst.worker) }()
	deadline := time.Now().Add(5 * time.Second)
	for src.in.qlen.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("merge never queued its evacuation")
		}
		time.Sleep(time.Millisecond)
	}
	split := make(chan struct{})
	src.in.push(&shipMsg{contReply: contReply{k: func(bool) {
		select {
		case <-split:
		case <-time.After(100 * time.Millisecond):
		}
	}}})
	src.in.push(&releaseMsg{txn: holder.ID})
	close(gate)
	if err := <-merged; err != nil {
		t.Fatal(err)
	}
	nw, err := e.SplitPartition("accounts", dst.worker, key)
	close(split)
	if err != nil {
		t.Fatal(err)
	}
	owner := e.byWorker[nw]
	if e.ownerOf(tbl, key) != owner {
		t.Fatal("split did not move the key")
	}

	// The key's new owner must grant it to another transaction.
	other := s.Begin()
	granted := make(chan bool, 1)
	owner.in.push(ctlMsg(func(p *partition) {
		granted <- p.locks.acquire(writeLock(tbl, other, key))
		p.locks.release(other.ID)
	}))
	select {
	case ok := <-granted:
		if !ok {
			t.Fatal("key still locked after the holder's release: the release was lost behind the split")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("new owner never adopted the split's lock state")
	}
}

// TestShipCounters pins what the ship counters mean: BlockingShips
// counts access-path operations whose sender parked on the reply,
// ContShips those shipped with a continuation, and neither counts
// maintenance (ExecOnOwner) or page-snapshot ships.
func TestShipCounters(t *testing.T) {
	s, tbl, e := rig(t, 20, 1)
	ses := s.Session(99) // not a worker: its accesses to owned keys ship

	before := e.ShipSnapshot()
	if _, err := ses.Read(s.Begin(), tbl, 7); err != nil {
		t.Fatal(err)
	}
	after := e.ShipSnapshot()
	if d := after.BlockingShips - before.BlockingShips; d != 1 {
		t.Fatalf("synchronous Read: BlockingShips +%d, want +1", d)
	}
	if d := after.ContShips - before.ContShips; d != 0 {
		t.Fatalf("synchronous Read: ContShips +%d, want +0", d)
	}

	before = after
	done := make(chan error, 1)
	ses.ReadAsync(s.Begin(), tbl, 7, nil, func(_ tuple.Record, err error) { done <- err })
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	after = e.ShipSnapshot()
	if d := after.ContShips - before.ContShips; d != 1 {
		t.Fatalf("ReadAsync: ContShips +%d, want +1", d)
	}
	if d := after.BlockingShips - before.BlockingShips; d != 0 {
		t.Fatalf("ReadAsync: BlockingShips +%d, want +0", d)
	}

	// Stamp key 7's heap page for its owner (on the owner's thread),
	// dirty it with an owner write, and checkpoint: the write-back ships
	// a snapshot request to the owner.
	before = after
	snaps := s.Pool.SnapshotShips.Load()
	stamped := false
	ok := e.ExecOnOwner("accounts", 7, func(ctx *OwnerCtx) {
		tok := ctx.Ses().Owner()
		v, err := ctx.Table().Primary.Tree.GetAs(tok, 7)
		if err != nil {
			return
		}
		stamped, _ = ctx.Table().Heap.TryStamp(storage.UnpackRID(v).Page, tok, func([]byte) bool { return true })
	})
	if !ok || !stamped {
		t.Fatalf("ExecOnOwner=%v stamped=%v", ok, stamped)
	}
	if err := e.Exec(0, transferFlow(tbl, 7, 8, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if s.Pool.SnapshotShips.Load() == snaps {
		t.Fatal("no snapshot ship: the stamped page was not hardened through its owner")
	}
	after = e.ShipSnapshot()
	if after.BlockingShips != before.BlockingShips || after.ContShips != before.ContShips {
		t.Fatalf("ExecOnOwner + snapshot ships moved ship counters: blocking %d->%d cont %d->%d",
			before.BlockingShips, after.BlockingShips, before.ContShips, after.ContShips)
	}
}

// TestDisposeRules: a retired (forwarding) partition disposes one
// message of each kind by its rule — ships fail back and are never
// forwarded, continuations are forwarded or run inline, control
// messages are forwarded, and actions reach their key's current owner.
func TestDisposeRules(t *testing.T) {
	_, tbl, e := rig(t, 100, 2)
	live := e.byWorker[0]
	closed := newPartition(e, tbl, -2, false)
	closed.in.close()

	cases := []struct {
		name    string
		forward *partition // closed: no live successor left
		run     func(t *testing.T, ret *partition)
	}{
		{"parked ship fails back", live, func(t *testing.T, ret *partition) {
			woke := make(chan bool, 1)
			go func() {
				woke <- ret.shipWait(&shipMsg{fn: func(*btree.Owner) { t.Error("disposed ship ran") }})
			}()
			ret.dispose(popOne(t, ret))
			if <-woke {
				t.Fatal("parked sender woke with true")
			}
		}},
		{"continuation ship fails through its home", live, func(t *testing.T, ret *partition) {
			konts := live.KontRun.Load()
			got := make(chan bool, 1)
			ret.dispose(&shipMsg{
				contReply: contReply{home: live.homeExec, k: func(ok bool) { got <- ok }},
				fn:        func(*btree.Owner) { t.Error("disposed ship ran") },
			})
			if <-got {
				t.Fatal("continuation got ok=true")
			}
			if live.KontRun.Load() != konts+1 {
				t.Fatal("done(false) did not arrive through the sender's home inbox")
			}
		}},
		{"kont runs on the successor", live, func(t *testing.T, ret *partition) {
			konts := live.KontRun.Load()
			ran := make(chan struct{})
			ret.dispose(&kontMsg{k: func() { close(ran) }})
			<-ran
			if live.KontRun.Load() != konts+1 {
				t.Fatal("continuation did not run on the successor")
			}
		}},
		{"kont runs inline when every successor retired", closed, func(t *testing.T, ret *partition) {
			ran := false
			ret.dispose(&kontMsg{k: func() { ran = true }})
			if !ran {
				t.Fatal("continuation not run inline")
			}
		}},
		{"ctl is forwarded", live, func(t *testing.T, ret *partition) {
			on := make(chan *partition, 1)
			ret.dispose(ctlMsg(func(p *partition) { on <- p }))
			if p := <-on; p != live {
				t.Fatal("control message did not run on the successor")
			}
		}},
		{"action past a closed successor reaches the owner", closed, func(t *testing.T, ret *partition) {
			key := e.Router("accounts").Ranges()[1].Lo
			owner := e.ownerOf(tbl, key)
			am, out := stageRead(e, tbl, key)
			ret.dispose(am)
			if v := awaitVerdict(t, "disposed action", out); v.err != nil || v.ses != owner.ses {
				t.Fatalf("action: err=%v, ran on owner=%v", v.err, v.ses == owner.ses)
			}
		}},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ret := newPartition(e, tbl, -10-i, false)
			ret.forward = c.forward
			ret.fwd.Store(c.forward)
			c.run(t, ret)
		})
	}
}

// popOne waits for the single message queued on p's (unserved) inbox.
func popOne(t *testing.T, p *partition) msg {
	t.Helper()
	batch, ok := p.in.popAll(nil)
	if !ok || len(batch) != 1 {
		t.Fatalf("popAll: ok=%v len=%d, want one message", ok, len(batch))
	}
	return batch[0]
}
