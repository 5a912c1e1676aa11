// Package tx defines the transaction context shared by both engines:
// identity, status, the per-transaction log-record chain, and the
// in-memory logical undo list used for rollback.
//
// A Txn must tolerate concurrent use: under DORA, actions of the same
// transaction execute in parallel on different partition workers, all
// logging against the same context.
package tx

import (
	"sync"
	"sync/atomic"

	"dora/internal/storage"
	"dora/internal/trace"
	"dora/internal/wal"
)

// Status is the transaction state.
type Status uint8

const (
	// Active transactions may read and write.
	Active Status = iota
	// Committed transactions are durable.
	Committed
	// Aborted transactions have been rolled back.
	Aborted
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Active:
		return "active"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	}
	return "unknown"
}

// UndoKind tells how to compensate an operation.
type UndoKind uint8

const (
	// UInsert is undone by deleting the inserted record.
	UInsert UndoKind = iota + 1
	// UUpdate is undone by restoring the before image.
	UUpdate
	// UDelete is undone by re-inserting the before image.
	UDelete
)

// Undo is one logical undo entry.
type Undo struct {
	Kind   UndoKind
	Table  uint32
	Key    int64
	RID    storage.RID
	Before []byte // encoded before image (update, delete)
	// LSN is the log record this entry compensates; PrevLSN its chain
	// predecessor (becomes the CLR's UndoNext).
	LSN     uint64
	PrevLSN uint64
}

// Txn is a transaction context.
type Txn struct {
	// ID is the globally unique transaction id.
	ID uint64

	// Trace is non-nil when this transaction was sampled by the latency
	// tracer; every TxnTrace method tolerates nil, so instrumentation
	// sites use it unguarded. Set once at admission, read from workers
	// and the commit pipeline.
	Trace *trace.TxnTrace

	mu       sync.Mutex
	status   Status
	lastLSN  uint64
	firstLSN uint64
	undos    []Undo
	// undoBuf backs undos for a transaction's first few writes, so a short
	// transaction records its undo entries without growing a slice.
	undoBuf [inlineUndos]Undo
	// rec stages the record Append hands to the log manager. It is used
	// only under mu, so a record of this transaction never needs a heap
	// object of its own.
	rec wal.Record

	// fin and done are the pending commit's finish step and its client
	// completion, set by SetCommit before the commit force is issued: the
	// Txn itself is the force's waiter, so an asynchronous commit builds
	// no closure.
	fin  Finisher
	done Completion
}

// Completion receives a transaction's commit verdict exactly once.
type Completion interface {
	Complete(err error)
}

// CompletionFunc adapts a function to Completion.
type CompletionFunc func(error)

// Complete implements Completion.
func (f CompletionFunc) Complete(err error) { f(err) }

// Finisher finishes a transaction once its commit force has returned
// (the storage manager: status flip, registry and counters, then the
// client's completion).
type Finisher interface {
	FinishCommit(t *Txn, err error)
}

// inlineUndos is how many undo entries a transaction holds before its
// undo list moves to a grown slice (a TPC-B transaction writes four rows).
const inlineUndos = 4

// IDGen allocates transaction ids.
type IDGen struct{ next atomic.Uint64 }

// Start gives t, a zero Txn the caller owns (an engine embeds it in its
// own per-transaction state), the next id.
func (g *IDGen) Start(t *Txn) { t.ID = g.next.Add(1) }

// EnsureAtLeast raises the generator so future ids exceed v (recovery
// must not reuse ids that appear in the log).
func (g *IDGen) EnsureAtLeast(v uint64) {
	for {
		cur := g.next.Load()
		if cur >= v {
			return
		}
		if g.next.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Status returns the current state.
func (t *Txn) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// SetStatus transitions the state.
func (t *Txn) SetStatus(s Status) {
	t.mu.Lock()
	t.status = s
	t.mu.Unlock()
}

// LastLSN returns the most recent log record of this transaction.
func (t *Txn) LastLSN() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastLSN
}

// FirstLSN returns the transaction's earliest log record, or 0 if it has
// not logged anything. Log truncation must keep every record from the
// oldest active transaction's first LSN onward, so its rollback can read
// the chain.
func (t *Txn) FirstLSN() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.firstLSN
}

// Append logs rec to m as the transaction's next record: it links rec to
// the chain head (rec.PrevLSN), appends it, installs the returned LSN as
// the new head and returns it with the head it replaced. The chain stays
// consistent even when DORA runs a transaction's actions in parallel.
// m copies rec's images during Append, so the caller may reuse them as
// soon as Append returns.
func (t *Txn) Append(m wal.Manager, rec wal.Record) (lsn, prev uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	prev = t.lastLSN
	t.rec = rec
	t.rec.PrevLSN = prev
	lsn = m.Append(&t.rec)
	t.rec = wal.Record{}
	t.lastLSN = lsn
	if t.firstLSN == 0 {
		t.firstLSN = lsn
	}
	return lsn, prev
}

// SetCommit records the finish step and the completion of t's pending
// commit; Forced runs them.
func (t *Txn) SetCommit(fin Finisher, done Completion) {
	t.fin, t.done = fin, done
}

// Forced implements wal.Waiter: the commit force returned, so the
// finish step runs.
func (t *Txn) Forced(err error) { t.fin.FinishCommit(t, err) }

// CommitDone returns the completion SetCommit recorded.
func (t *Txn) CommitDone() Completion { return t.done }

// AddUndo appends a logical undo entry.
func (t *Txn) AddUndo(u Undo) {
	t.mu.Lock()
	if t.undos == nil {
		t.undos = t.undoBuf[:0]
	}
	t.undos = append(t.undos, u)
	t.mu.Unlock()
}

// TakeUndos returns the undo entries in apply (reverse) order and clears
// the list. Called exactly once, by rollback.
func (t *Txn) TakeUndos() []Undo {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Undo, len(t.undos))
	for i, u := range t.undos {
		out[len(t.undos)-1-i] = u
	}
	clear(t.undos)
	t.undos = t.undos[:0]
	return out
}

// UndoCount returns the number of pending undo entries.
func (t *Txn) UndoCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.undos)
}
