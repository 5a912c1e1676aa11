package dora

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dora/internal/catalog"
	"dora/internal/page"
	"dora/internal/sm"
	"dora/internal/tuple"
	"dora/internal/xct"
)

// TestRollbackFailureIsTypedError: an abort whose undo the storage layer
// cannot apply reaches the client as a *RollbackError instead of taking
// the process down, is counted, and leaves the run's local locks held.
//
// The failing undo: a flow shrinks row 1's name in phase 0; while its
// phase 1 action waits, another transaction grows the short rows on the
// same heap page until the page's free tail is used up; phase 1 then
// fails, and restoring row 1's longer before image needs room the page
// no longer has (page.ErrPageFull).
func TestRollbackFailureIsTypedError(t *testing.T) {
	s, err := sm.Open(sm.Options{Frames: 256})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := s.CreateTable(sm.TableSpec{
		Name: "names",
		Fields: []catalog.Field{
			{Name: "id", Type: tuple.TInt},
			{Name: "name", Type: tuple.TString},
		},
		KeyFields: []string{"id"},
		Key:       func(r tuple.Record) int64 { return r[0].Int },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Row 1 is long, rows 2..200 short: all of them fit on one page with
	// room to spare.
	const rows = 200
	ses := s.Session(0)
	load := s.Begin()
	for i := int64(1); i <= rows; i++ {
		name := "short"
		if i == 1 {
			name = strings.Repeat("x", 100)
		}
		if err := ses.Insert(load, tbl, tuple.Record{tuple.I(i), tuple.S(name)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(load); err != nil {
		t.Fatal(err)
	}
	// Two partitions over [1, 400]: the rows live on worker 0, the
	// failing phase-1 action (key 300) runs on worker 1.
	e := New(s, Config{
		PartitionsPerTable: 2,
		Domains:            map[string][2]int64{"names": {1, 2 * rows}},
		LocalTimeout:       100 * time.Millisecond,
		TickEvery:          10 * time.Millisecond,
	})
	t.Cleanup(func() { _ = e.Close() })

	waiting, filled := make(chan struct{}), make(chan struct{})
	flow := xct.NewFlow("shrink-then-fail").
		AddPhase(&xct.Action{
			Table: "names", KeyField: "id", Key: 1, Mode: xct.Write,
			Run: func(env *xct.Env) error {
				return env.Ses.Update(env.Txn, tbl, 1, tuple.Record{tuple.I(1), tuple.S("y")})
			},
		}).
		AddPhase(&xct.Action{
			Table: "names", KeyField: "id", Key: 300, Mode: xct.Write,
			Run: func(*xct.Env) error {
				close(waiting)
				<-filled
				return errFailAction
			},
		})
	verdict := make(chan error, 1)
	e.ExecAsync(0, flow, func(err error) { verdict <- err })

	// The filler grows short rows one committed transaction at a time
	// (each growth relocates the record into the page's free tail) until
	// the page refuses one: the tail is then shorter than a grown short
	// row, far shorter than row 1's 100-byte name.
	<-waiting
	fill := s.Session(1)
	grown := 0
	for id := int64(2); id <= rows; id++ {
		txn := s.Begin()
		err := fill.Update(txn, tbl, id, tuple.Record{tuple.I(id), tuple.S(strings.Repeat("z", 30))})
		if errors.Is(err, page.ErrPageFull) {
			if rerr := s.Rollback(txn); rerr != nil {
				t.Fatal(rerr)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(txn); err != nil {
			t.Fatal(err)
		}
		grown++
	}
	if grown == 0 || grown == rows-1 {
		t.Fatalf("filler grew %d rows: the page never filled", grown)
	}
	close(filled)

	var got error
	select {
	case got = <-verdict:
	case <-time.After(10 * time.Second):
		t.Fatal("flow with a failing undo never resolved")
	}
	var rbe *RollbackError
	if !errors.As(got, &rbe) {
		t.Fatalf("verdict = %v (%T), want *RollbackError", got, got)
	}
	if rbe.Txn == 0 || !errors.Is(got, page.ErrPageFull) {
		t.Fatalf("RollbackError = %+v, want a txn id and page.ErrPageFull as cause", rbe)
	}
	if n := e.RollbackFailures.Load(); n != 1 {
		t.Fatalf("RollbackFailures = %d, want 1", n)
	}
	if n := e.Aborted.Load(); n != 0 {
		t.Fatalf("Aborted = %d, want 0: a failed rollback is not an abort", n)
	}

	// Row 1 keeps its half-undone state under the failed run's lock: a
	// writer times out instead of reading it.
	write1 := xct.NewFlow("write-1").AddPhase(&xct.Action{
		Table: "names", KeyField: "id", Key: 1, Mode: xct.Write,
		Run: func(env *xct.Env) error {
			return env.Ses.Update(env.Txn, tbl, 1, tuple.Record{tuple.I(1), tuple.S("w")})
		},
	})
	if err := e.Exec(0, write1); !errors.Is(err, ErrLocalTimeout) {
		t.Fatalf("write of the locked row = %v, want ErrLocalTimeout", err)
	}
	// Other keys of the same partition stay writable.
	write2 := xct.NewFlow("write-2").AddPhase(&xct.Action{
		Table: "names", KeyField: "id", Key: 2, Mode: xct.Write,
		Run: func(env *xct.Env) error {
			return env.Ses.Update(env.Txn, tbl, 2, tuple.Record{tuple.I(2), tuple.S("w")})
		},
	})
	if err := e.Exec(0, write2); err != nil {
		t.Fatalf("write of an unlocked row: %v", err)
	}
}
