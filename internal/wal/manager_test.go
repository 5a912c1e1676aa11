package wal_test

import (
	"errors"
	"sync"
	"testing"

	"dora/internal/wal"
	"dora/internal/wal/clog"
)

// The tests in this file check the wal.Manager contract — monotonic
// LSNs, Force and the durable horizon, group commit, sticky failure,
// concurrent appends — on its implementation, clog.Log.

func mkManager(t *testing.T, store wal.Store) wal.Manager {
	t.Helper()
	l, err := clog.New(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return l
}

func TestAppendAssignsMonotonicLSNs(t *testing.T) {
	l := mkManager(t, wal.NewMemStore())
	var prev wal.LSN
	for i := 0; i < 100; i++ {
		lsn := l.Append(&wal.Record{Kind: wal.KUpdate, TxnID: 1, Redo: []byte{byte(i)}})
		if lsn <= prev {
			t.Fatalf("LSN %d not > %d", lsn, prev)
		}
		prev = lsn
	}
}

func TestForceAdvancesDurable(t *testing.T) {
	l := mkManager(t, wal.NewMemStore())
	lsn := l.Append(&wal.Record{Kind: wal.KCommit, TxnID: 1})
	if l.Durable() > lsn {
		t.Fatal("record durable before Force")
	}
	if err := l.Force(lsn); err != nil {
		t.Fatal(err)
	}
	if l.Durable() <= lsn {
		t.Fatalf("Durable = %d, want > %d", l.Durable(), lsn)
	}
}

func TestGroupCommitBatches(t *testing.T) {
	l := mkManager(t, wal.NewMemStore())
	const n = 32
	lsns := make([]wal.LSN, n)
	for i := range lsns {
		lsns[i] = l.Append(&wal.Record{Kind: wal.KCommit, TxnID: uint64(i)})
	}
	var wg sync.WaitGroup
	for _, lsn := range lsns {
		wg.Add(1)
		go func(lsn wal.LSN) {
			defer wg.Done()
			if err := l.Force(lsn); err != nil {
				t.Error(err)
			}
		}(lsn)
	}
	wg.Wait()
	// Group commit: some force is satisfied without a device sync of its
	// own. clog counts a force as grouped only when it finds its LSN
	// already durable; forces that wait on one shared flush count in
	// neither, so compare syncs with forces.
	if st := l.Stats(); st.Syncs >= st.Forces {
		t.Fatalf("%d syncs for %d concurrent forces: no force was grouped", st.Syncs, st.Forces)
	}
}

// failSyncStore fails Sync on demand, simulating a dying log device.
type failSyncStore struct {
	*wal.MemStore
	mu   sync.Mutex
	fail bool
}

func (s *failSyncStore) setFail(v bool) {
	s.mu.Lock()
	s.fail = v
	s.mu.Unlock()
}

func (s *failSyncStore) Sync() error {
	s.mu.Lock()
	fail := s.fail
	s.mu.Unlock()
	if fail {
		return errors.New("device failure")
	}
	return s.MemStore.Sync()
}

func TestForceFailureIsSticky(t *testing.T) {
	store := &failSyncStore{MemStore: wal.NewMemStore()}
	l, err := clog.New(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := l.Durable()
	store.setFail(true)
	lsn := l.Append(&wal.Record{Kind: wal.KCommit, TxnID: 1})
	if err := l.Force(lsn); err == nil {
		t.Fatal("force over failing store must error")
	}
	// The device recovers, but the log must stay dead: a commit reported
	// aborted on the first failure must never be hardened by a later
	// transaction's force.
	store.setFail(false)
	lsn2 := l.Append(&wal.Record{Kind: wal.KCommit, TxnID: 2})
	if err := l.Force(lsn2); err == nil {
		t.Fatal("force after sticky failure must keep erroring")
	}
	if d := l.Durable(); d != before {
		t.Fatalf("durable advanced from %d to %d over a dead log", before, d)
	}
	_ = l.Close()
}

func TestConcurrentAppendScan(t *testing.T) {
	l := mkManager(t, wal.NewMemStore())
	var wg sync.WaitGroup
	const writers, per = 8, 500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Append(&wal.Record{Kind: wal.KUpdate, TxnID: uint64(w + 1), Key: int64(i)})
			}
		}(w)
	}
	wg.Wait()
	n := 0
	seen := map[wal.LSN]bool{}
	if err := l.Scan(func(r *wal.Record) error {
		if seen[r.LSN] {
			t.Fatalf("duplicate LSN %d", r.LSN)
		}
		seen[r.LSN] = true
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != writers*per {
		t.Fatalf("scanned %d, want %d", n, writers*per)
	}
}
