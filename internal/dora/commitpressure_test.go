package dora

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dora/internal/catalog"
	"dora/internal/sm"
	"dora/internal/tuple"
	"dora/internal/wal"
	"dora/internal/xct"
)

// holdStore is a log store whose Sync waits while the test holds hold,
// and then sleeps delay per call (a slow device).
type holdStore struct {
	*wal.MemStore
	hold  sync.Mutex
	delay time.Duration
}

func (h *holdStore) Sync() error {
	h.hold.Lock()
	h.hold.Unlock()
	time.Sleep(h.delay)
	return h.MemStore.Sync()
}

// TestWorkerCommitsUnderLogBackpressure: a transaction is resolved on
// the partition worker whose report completes it, so its commit or
// rollback append can park that worker in the log's waitForRoom. With
// one log Sync held, 1200 two-phase flows spanning two partitions, each
// update a 3000-byte patch, fill the log's pending bound until a
// partition worker parks there. A third of the flows fail in phase 1,
// whose only action runs on the partition of their first write: that
// worker reports last and starts a rollback whose first compensation
// ships back to its own inbox. Once the Sync is released (every later
// one takes 1 ms), every flow must resolve with its own verdict, the
// balance sum must be intact, and Close must return.
func TestWorkerCommitsUnderLogBackpressure(t *testing.T) {
	const (
		parts   = 4
		span    = 1024 // routing values per partition
		perPart = 64   // rows per partition, at the start of its span
		flows   = 1200
		width   = 3000
	)
	store := &holdStore{MemStore: wal.NewMemStore(), delay: time.Millisecond}
	s, err := sm.Open(sm.Options{Frames: 1024, LogStore: store})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := s.CreateTable(sm.TableSpec{
		Name: "accounts",
		Fields: []catalog.Field{
			{Name: "id", Type: tuple.TInt},
			{Name: "balance", Type: tuple.TInt},
			{Name: "pad", Type: tuple.TString},
		},
		KeyFields: []string{"id"},
		Key:       func(r tuple.Record) int64 { return r[0].Int },
	})
	if err != nil {
		t.Fatal(err)
	}
	// A generous local timeout: no flow here can wait in a cycle, so a
	// timeout would only mean a worker stayed parked too long.
	e := New(s, Config{
		PartitionsPerTable: parts,
		Domains:            map[string][2]int64{"accounts": {0, parts*span - 1}},
		LocalTimeout:       30 * time.Second,
	})
	// closeWithin closes the engine, failing the test if Close is still
	// blocked after d (a wedged engine never releases its gate).
	closeWithin := func(d time.Duration) {
		closeDone := make(chan error, 1)
		go func() { closeDone <- e.Close() }()
		select {
		case err := <-closeDone:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(d):
			t.Errorf("Close did not return within %v", d)
		}
	}
	closed := false
	t.Cleanup(func() {
		if !closed {
			closeWithin(10 * time.Second)
		}
	})
	// Load through the engine, so every heap page is owner-stamped: the
	// buffer cleaner then hardens them through snapshot ships and never
	// holds a frame latch a worker needs across the held Sync.
	var keys []int64
	for p := int64(0); p < parts; p++ {
		for i := int64(0); i < perPart; i++ {
			keys = append(keys, p*span+i)
		}
	}
	for _, k := range keys {
		rec := tuple.Record{tuple.I(k), tuple.I(100), tuple.S(strings.Repeat("a", width))}
		if err := e.Exec(0, xct.NewFlow("load").AddPhase(&xct.Action{
			Table: "accounts", KeyField: "id", Key: k, Mode: xct.Write,
			Run: func(env *xct.Env) error { return env.Ses.Insert(env.Txn, tbl, rec) },
		})); err != nil {
			t.Fatal(err)
		}
	}

	// write adds delta to key's balance and rewrites its whole pad, so
	// every update logs a patch of width bytes each way.
	write := func(key, delta int64, fill byte) *xct.Action {
		pad := strings.Repeat(string(fill), width)
		return &xct.Action{
			Table: "accounts", KeyField: "id", Key: key, Mode: xct.Write,
			Run: func(env *xct.Env) error {
				return env.Ses.Mutate(env.Txn, tbl, key, func(r tuple.Record) tuple.Record {
					r[1] = tuple.I(r[1].Int + delta)
					r[2] = tuple.S(pad)
					return r
				})
			},
		}
	}
	// last is the flow's phase-1 action. Its key is a routing value of
	// partition p that no other flow uses (and no row holds), so phase 1
	// never waits and no two flows can wait on each other.
	var nextFree [parts]int64
	last := func(p int64, err error) *xct.Action {
		nextFree[p]++
		return &xct.Action{
			Table: "accounts", KeyField: "id", Key: p*span + perPart + nextFree[p], Mode: xct.Write,
			Run: func(*xct.Env) error { return err },
		}
	}

	rng := rand.New(rand.NewPCG(7, 30))
	var (
		wg                  sync.WaitGroup
		committed, rollback atomic.Int64
		unexpected          atomic.Pointer[error]
	)
	store.hold.Lock()
	for i := 0; i < flows; i++ {
		p := rng.Int64N(parts)
		q := (p + 1 + rng.Int64N(parts-1)) % parts
		a, b := p*span+rng.Int64N(perPart), q*span+rng.Int64N(perPart)
		fill := byte('b' + i%24)
		aborting := i%3 == 0
		var end error
		if aborting {
			end = errFailAction
		}
		flow := xct.NewFlow("pressure").
			AddPhase(write(a, 1, fill), write(b, -1, fill)).
			AddPhase(last(p, end))
		wg.Add(1)
		e.ExecAsync(0, flow, func(err error) {
			defer wg.Done()
			switch {
			case err == nil && !aborting:
				committed.Add(1)
			case errors.Is(err, errFailAction) && aborting:
				rollback.Add(1)
			default:
				unexpected.CompareAndSwap(nil, &err)
			}
		})
	}

	// Nothing hardens while the Sync is held, and the flows log far more
	// than the pending bound, so appenders must park. Release the Sync
	// once a partition worker is seen parked in waitForRoom.
	parked := false
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(20 * time.Second); !parked && time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		n := runtime.Stack(buf, true)
		for _, g := range bytes.Split(buf[:n], []byte("\n\n")) {
			if bytes.Contains(g, []byte("clog.(*Log).waitForRoom")) && bytes.Contains(g, []byte("dora.(*partition).loop")) {
				parked = true
			}
		}
	}
	store.hold.Unlock()
	if !parked {
		t.Fatal("no partition worker parked in the log's waitForRoom while the Sync was held")
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("flows unresolved after 30s: %d committed, %d rolled back of %d",
			committed.Load(), rollback.Load(), flows)
	}
	if p := unexpected.Load(); p != nil {
		t.Fatalf("unexpected verdict: %v", *p)
	}
	if c, r := committed.Load(), rollback.Load(); c != flows-flows/3 || r != flows/3 {
		t.Fatalf("%d committed, %d rolled back of %d", c, r, flows)
	}
	var total int64
	ses := s.Session(99)
	txn := s.Begin()
	for _, k := range keys {
		rec, err := ses.Read(txn, tbl, k)
		if err != nil {
			t.Fatal(err)
		}
		total += rec[1].Int
	}
	if want := int64(len(keys)) * 100; total != want {
		t.Fatalf("balance sum = %d, want %d", total, want)
	}

	closed = true
	closeWithin(10 * time.Second)
}
