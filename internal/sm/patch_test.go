package sm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dora/internal/buffer"
	"dora/internal/page"
	"dora/internal/storage"
	"dora/internal/tuple"
	"dora/internal/tx"
	"dora/internal/wal"
)

// TestRecoverPatchMismatch: an update patch applies only over its exact
// pre-image. A flushed page whose byte inside that pre-image is corrupt
// fails recovery with a PatchMismatchError naming the update's LSN.
func TestRecoverPatchMismatch(t *testing.T) {
	rig := newRig()
	s := rig.open(t)
	tbl := testTable(t, s)
	ses := s.Session(0)
	base := s.Begin()
	if err := ses.Insert(base, tbl, acct(1, "base", 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(base); err != nil {
		t.Fatal(err)
	}
	if err := s.Pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	upd := s.Begin()
	if err := ses.Mutate(upd, tbl, 1, func(r tuple.Record) tuple.Record {
		r[2] = tuple.I(11)
		return r
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(upd); err != nil {
		t.Fatal(err)
	}
	var patch *wal.Record
	if err := s.Log.Scan(func(r *wal.Record) error {
		if r.Kind == wal.KUpdate {
			patch = r
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if patch == nil || len(patch.Undo) == 0 {
		t.Fatalf("update logged %+v, want a patch with a pre-image", patch)
	}

	// The disk holds the page as the insert left it; flip the first byte
	// of the update's pre-image there.
	var pg page.Page
	if err := rig.disk.ReadPage(patch.Page, &pg); err != nil {
		t.Fatal(err)
	}
	img, err := pg.Get(int(patch.Slot))
	if err != nil {
		t.Fatal(err)
	}
	img[patch.Off] ^= 0xFF
	if err := rig.disk.WritePage(patch.Page, &pg); err != nil {
		t.Fatal(err)
	}

	s2 := rig.crash(t)
	testTable(t, s2)
	_, err = s2.Recover()
	var pm *storage.PatchMismatchError
	if !errors.As(err, &pm) {
		t.Fatalf("recover over a corrupt page: err = %v, want a PatchMismatchError", err)
	}
	if pm.LSN != patch.LSN || pm.Table != patch.Table || pm.Page != patch.Page || pm.Slot != patch.Slot {
		t.Fatalf("mismatch names %+v, want lsn %d table %d page %d slot %d", pm, patch.LSN, patch.Table, patch.Page, patch.Slot)
	}
}

// gatedStore is a MemStore whose Sync waits while the test holds hold,
// so the test decides when a flush completes.
type gatedStore struct {
	*wal.MemStore
	hold sync.Mutex
}

func (g *gatedStore) Sync() error {
	g.hold.Lock()
	g.hold.Unlock()
	return g.MemStore.Sync()
}

// openGated opens a storage manager over a gated log with rows 1..n
// committed.
func openGated(t *testing.T, n int64) (*SM, *gatedStore) {
	t.Helper()
	store := &gatedStore{MemStore: wal.NewMemStore()}
	s, err := Open(Options{Frames: 64, LogStore: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	tbl := testTable(t, s)
	txn := s.Begin()
	for i := int64(1); i <= n; i++ {
		if err := s.Session(0).Insert(txn, tbl, acct(i, "r", 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(txn); err != nil {
		t.Fatal(err)
	}
	return s, store
}

// commitAsyncUpdates begins one transaction per row 1..n, updates the row
// and commits it asynchronously; the returned channel receives each
// completion.
func commitAsyncUpdates(t *testing.T, s *SM, n int64) chan error {
	t.Helper()
	tbl := s.Cat.Table("accounts")
	done := make(chan error, n)
	for i := int64(1); i <= n; i++ {
		txn := s.Begin()
		if err := s.Session(0).Update(txn, tbl, i, acct(i, "r", i)); err != nil {
			t.Fatal(err)
		}
		s.CommitAsync(txn, tx.CompletionFunc(func(err error) { done <- err }))
	}
	return done
}

// awaitCommits waits for n completions, failing by name on a deadline.
func awaitCommits(t *testing.T, done chan error, n int) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatalf("%d of %d async commits completed", i, n)
		}
	}
}

// TestCommitCompletionAppendsNothing: the flush that hardens N async
// commits completes all of them without appending a record — the commit
// record is terminal, so no end record follows.
func TestCommitCompletionAppendsNothing(t *testing.T) {
	s, store := openGated(t, 16)
	store.hold.Lock()
	done := commitAsyncUpdates(t, s, 16)
	appends := s.Log.Stats().Appends
	store.hold.Unlock()
	awaitCommits(t, done, 16)
	if got := s.Log.Stats().Appends; got != appends {
		t.Fatalf("completing 16 commits appended %d records", got-appends)
	}
}

// TestCommitCompletesAtBackpressureBound: a commit completes while the
// log sits at its pending-bytes bound with appenders parked for room —
// nothing in the completion waits for log room, so nothing deadlocks.
func TestCommitCompletesAtBackpressureBound(t *testing.T) {
	s, store := openGated(t, 4)
	store.hold.Lock()
	done := commitAsyncUpdates(t, s, 4)
	// One appender writes 24 half-MiB records, 12 MiB: more than the
	// consolidation log's 8 MiB pending bound. With the flush held, its
	// first 15 are admitted and the 16th parks waiting for room.
	const bulk = 24
	rec := wal.Record{Kind: wal.KInsert, TxnID: 1 << 40, Redo: make([]byte, 512<<10)}
	size := uint64(wal.EncodedSize(&rec))
	base, start := s.Log.Stats().Appends, s.Log.Next()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < bulk; i++ {
			r := rec
			s.Log.Append(&r)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.Log.Next() < start+15*size || s.Log.Stats().Appends < base+16 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d bytes of bulk records admitted", s.Log.Next()-start)
		}
		time.Sleep(time.Millisecond)
	}
	store.hold.Unlock()
	awaitCommits(t, done, 4)
	wg.Wait()
	if err := s.Log.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := s.Log.Stats().Appends - base; got != bulk {
		t.Fatalf("%d records appended besides the bulk ones", got-bulk)
	}
}

// TestReplayerForgetsResolvedTxns replays 1,000 committed transactions
// and 50 rolled-back ones: once each resolution applies, the replayer
// keeps nothing about the transaction — its analysis state, resolution
// marker and warming entry all go — and the replica holds the primary's
// rows.
func TestReplayerForgetsResolvedTxns(t *testing.T) {
	s := open(t)
	tbl := testTable(t, s)
	ses := s.Session(0)
	load := s.Begin()
	for i := int64(0); i < 10; i++ {
		if err := ses.Insert(load, tbl, acct(i, "r", 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(load); err != nil {
		t.Fatal(err)
	}
	for n := int64(0); n < 1050; n++ {
		txn := s.Begin()
		if err := ses.Mutate(txn, tbl, n%10, func(r tuple.Record) tuple.Record {
			r[2] = tuple.I(r[2].Int + n)
			return r
		}); err != nil {
			t.Fatal(err)
		}
		if n%21 == 20 {
			if err := s.Rollback(txn); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := s.Commit(txn); err != nil {
			t.Fatal(err)
		}
	}
	var recs []*wal.Record
	if err := s.Log.Scan(func(r *wal.Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rs, err := Open(Options{Frames: 64, Disk: buffer.NewMemDisk(), RedoWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			rtbl := testTable(t, rs)
			rp := NewReplayer(rs)
			defer rp.Close()
			for _, r := range recs {
				if err := rp.Apply(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := rp.Sync(); err != nil {
				t.Fatal(err)
			}
			rp.mu.Lock()
			txns, resolved, warm, pending := len(rp.txns), len(rp.resolved), len(rp.warm), len(rp.pending)
			rp.mu.Unlock()
			if txns+resolved+warm+pending != 0 {
				t.Fatalf("after replay: %d txns, %d resolved, %d warm, %d pending; want none", txns, resolved, warm, pending)
			}
			for i := int64(0); i < 10; i++ {
				want, err := ses.Read(s.Begin(), tbl, i)
				if err != nil {
					t.Fatal(err)
				}
				got, err := rs.Session(0).Read(rs.Begin(), rtbl, i)
				if err != nil || !got.Equal(want) {
					t.Fatalf("row %d on the replica: %v %v, primary %v", i, got, err, want)
				}
			}
		})
	}
}
