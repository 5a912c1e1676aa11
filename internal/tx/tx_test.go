package tx

import (
	"sync"
	"testing"

	"dora/internal/wal"
)

func TestIDGenUnique(t *testing.T) {
	var g IDGen
	seen := sync.Map{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				id := nextID(&g)
				if _, dup := seen.LoadOrStore(id, true); dup {
					t.Errorf("duplicate txn id %d", id)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// nextID starts a transaction from g and returns its id.
func nextID(g *IDGen) uint64 {
	var t Txn
	g.Start(&t)
	return t.ID
}

func TestEnsureAtLeast(t *testing.T) {
	var g IDGen
	g.EnsureAtLeast(100)
	if id := nextID(&g); id <= 100 {
		t.Fatalf("id = %d, want > 100", id)
	}
	g.EnsureAtLeast(50) // lowering must be a no-op
	if id := nextID(&g); id <= 100 {
		t.Fatalf("id = %d after no-op lower", id)
	}
}

// seqLog is a wal.Manager whose Append hands out the LSNs of next in
// turn and records the PrevLSN each record carried.
type seqLog struct {
	wal.Manager
	mu    sync.Mutex
	next  func() uint64
	prevs []uint64
}

func (l *seqLog) Append(rec *wal.Record) wal.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.prevs = append(l.prevs, rec.PrevLSN)
	rec.LSN = l.next()
	return rec.LSN
}

func TestChainOrdering(t *testing.T) {
	txn := &Txn{ID: 1}
	n := uint64(0)
	log := &seqLog{next: func() uint64 { n += 10; return n }}
	for i := 0; i < 5; i++ {
		txn.Append(log, wal.Record{Kind: wal.KUpdate, TxnID: txn.ID})
	}
	want := []uint64{0, 10, 20, 30, 40}
	for i := range want {
		if log.prevs[i] != want[i] {
			t.Fatalf("chain order %v", log.prevs)
		}
	}
	if txn.LastLSN() != 50 || txn.FirstLSN() != 10 {
		t.Fatalf("first %d, last %d", txn.FirstLSN(), txn.LastLSN())
	}
}

func TestConcurrentChain(t *testing.T) {
	// DORA runs actions of one txn on several workers; the chain must
	// stay consistent: each append sees the previous LSN.
	txn := &Txn{ID: 1}
	n := uint64(0)
	log := &seqLog{next: func() uint64 { n += 7; return n }}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 125; i++ {
				lsn, prev := txn.Append(log, wal.Record{Kind: wal.KUpdate, TxnID: txn.ID})
				if lsn != prev+7 {
					t.Errorf("append got %d after head %d", lsn, prev)
				}
			}
		}()
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, prev := range log.prevs {
		if seen[prev] {
			t.Fatalf("prev %d seen twice", prev)
		}
		seen[prev] = true
	}
	if txn.LastLSN() != 1000*7 {
		t.Fatalf("last = %d", txn.LastLSN())
	}
}

func TestUndoReverseOrder(t *testing.T) {
	txn := &Txn{ID: 1}
	for i := int64(0); i < 5; i++ {
		txn.AddUndo(Undo{Key: i})
	}
	if txn.UndoCount() != 5 {
		t.Fatalf("count = %d", txn.UndoCount())
	}
	undos := txn.TakeUndos()
	for i, u := range undos {
		if u.Key != int64(4-i) {
			t.Fatalf("undo order: %v", undos)
		}
	}
	if txn.UndoCount() != 0 {
		t.Fatal("TakeUndos must clear")
	}
}

func TestStatusTransitions(t *testing.T) {
	txn := &Txn{ID: 1}
	if txn.Status() != Active {
		t.Fatal("new txn not active")
	}
	txn.SetStatus(Committed)
	if txn.Status() != Committed {
		t.Fatal("status not set")
	}
	if Active.String() != "active" || Committed.String() != "committed" || Aborted.String() != "aborted" {
		t.Fatal("status strings")
	}
}
