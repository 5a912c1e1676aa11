// Package xct defines the engine-neutral transaction representation: a
// transaction flow graph — phases of actions separated by rendezvous
// points (RVPs) exactly as in the paper's Section 1.1 and its designer
// tool (Section 2.3, "the graph of actions and RVPs constitute the flow
// graph of the transaction").
//
// Both engines execute the same flow graphs. The conventional engine
// walks them serially in one worker thread, taking hierarchical locks
// per action (thread-to-transaction). The DORA engine dispatches each
// phase's actions to the partitions that own their data and lets the
// RVP's last finisher trigger the next phase or the commit decision
// (thread-to-data). Workloads therefore define each transaction once.
//
// In both engines the commit decided by the final RVP is pipelined:
// locks (global or partition-local) are released as soon as the commit
// record has its LSN, and the log manager's flush daemon completes the
// transaction — and unblocks its client — once that record hardens.
// LSN-ordered flushing makes the early release safe: a transaction that
// read the released writes cannot become durable first.
//
// Workloads build each transaction in one heap object: a per-kind struct
// that embeds Flow and holds the transaction's parameters, its Action
// array, the pointer array its phases slice (AddPhase does not copy a
// slice it is handed) and any scratch the bodies share, such as a value
// an earlier phase computes for a later one. The builder points
// Flow.Params at that struct, every engine copies it into the Env of each
// body and resolver it calls (Flow.Env), and the bodies and resolvers are
// package-level functions that capture nothing: they read their inputs
// through a type assertion on Env.Params. A flow is built once, for one
// transaction, and is never shared between transactions: its parameter
// block is that transaction's private state.
package xct

import (
	"dora/internal/sm"
	"dora/internal/tuple"
	"dora/internal/tx"
)

// Mode declares the kind of access an action performs on its key.
type Mode uint8

const (
	// Read actions only read rows under their routing key.
	Read Mode = iota
	// Write actions may insert, update or delete rows under their key.
	Write
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Write {
		return "W"
	}
	return "R"
}

// LockMode is a multigranularity lock mode in DORA's hierarchical local
// lock tables (partition → key-range granule → key). Point accesses take
// S/X at the key level with IS/IX intents on the path above; range scans
// and partition-wide operations take S/X directly at the granule or
// partition level; SIX is the standard "read the whole subtree, write
// some of it" combination a transaction reaches by upgrading a coarse S
// with write intents.
type LockMode uint8

// Lock modes, ordered so that numeric comparison means nothing — use
// LockCovers/LockLub for lattice queries and LockCompatible for the
// conflict matrix.
const (
	LockNone LockMode = iota
	LockIS
	LockIX
	LockS
	LockSIX
	LockX
)

// String implements fmt.Stringer.
func (m LockMode) String() string {
	switch m {
	case LockIS:
		return "IS"
	case LockIX:
		return "IX"
	case LockS:
		return "S"
	case LockSIX:
		return "SIX"
	case LockX:
		return "X"
	}
	return "-"
}

// lockCompat is the standard multigranularity compatibility matrix
// (Gray et al.): rows/columns IS, IX, S, SIX, X.
var lockCompat = [6][6]bool{
	LockNone: {LockNone: true, LockIS: true, LockIX: true, LockS: true, LockSIX: true, LockX: true},
	LockIS:   {LockNone: true, LockIS: true, LockIX: true, LockS: true, LockSIX: true},
	LockIX:   {LockNone: true, LockIS: true, LockIX: true},
	LockS:    {LockNone: true, LockIS: true, LockS: true},
	LockSIX:  {LockNone: true, LockIS: true},
	LockX:    {LockNone: true},
}

// LockCompatible reports whether two holds by DIFFERENT transactions can
// coexist on one node.
func LockCompatible(a, b LockMode) bool { return lockCompat[a][b] }

// LockCovers reports whether holding `held` makes a request for `want`
// on the same node by the same transaction redundant. The lattice:
// X covers everything; SIX covers S, IX, IS; S covers IS; IX covers IS.
func LockCovers(held, want LockMode) bool {
	if held == want || want == LockNone {
		return true
	}
	switch held {
	case LockX:
		return true
	case LockSIX:
		return want == LockS || want == LockIX || want == LockIS
	case LockS, LockIX:
		return want == LockIS
	}
	return false
}

// LockLub returns the least upper bound of two modes — the weakest
// single mode covering both (S ∨ IX = SIX; anything ∨ X = X).
func LockLub(a, b LockMode) LockMode {
	if LockCovers(a, b) {
		return a
	}
	if LockCovers(b, a) {
		return b
	}
	// The only incomparable pairs below X are {S, IX} and {S/IX, SIX}
	// variants; all of them join at SIX.
	if a == LockX || b == LockX {
		return LockX
	}
	return LockSIX
}

// LockFor maps an action's access mode to the key-level lock it needs.
func (m Mode) LockFor() LockMode {
	if m == Write {
		return LockX
	}
	return LockS
}

// IntentFor maps an action's access mode to the intent its ancestors in
// the hierarchy need.
func (m Mode) IntentFor() LockMode {
	if m == Write {
		return LockIX
	}
	return LockIS
}

// Env is the execution environment handed to action bodies: the shared
// transaction context plus the worker-tagged storage session of whichever
// thread runs the action. Engines build it with Flow.Env, so Params is
// always the flow's.
type Env struct {
	Txn *tx.Txn
	Ses *sm.Session
	// Params is the executing flow's Flow.Params: the parameter block a
	// capture-free body or resolver reads its inputs from.
	Params any
	// Async, when non-nil, is the engine's continuation host: the action
	// may suspend itself on a foreign (cross-partition) operation instead
	// of blocking its worker thread. Engines without partition workers
	// (the conventional engine) leave it nil and bodies fall back to the
	// synchronous session operations.
	Async AsyncHost
}

// AsyncHost is what a continuation-passing engine offers an action body
// (DORA partition workers implement it; see internal/dora).
type AsyncHost interface {
	// Home returns the continuation executor of the thread running the
	// action: asynchronous session operations deliver their completions
	// through it, so a suspended action resumes on its own worker.
	Home() sm.ContExec
	// Suspend detaches the action from its thread: the engine ignores
	// the body's return value (return nil after calling Suspend) and the
	// worker resumes draining its inbox; the returned resume function
	// must be called exactly once — typically from an async operation's
	// completion — with the action's final error. Call Suspend at most
	// once per action execution.
	Suspend() (resume func(error))
}

// Resolver maps an action's key to the row's value of another field,
// typically via a secondary-index probe (for example TATP sub_nbr →
// s_id). Engines invoke it when the declared key field is not the field
// they lock or route on — a non-partitioning-aligned access in the
// paper's terms (the subject of experiment E7).
type Resolver func(env *Env, field string) (int64, error)

// AsyncResolver is Resolve in continuation-passing form: k fires exactly
// once with the resolved value or an error, possibly on another worker's
// thread. Engines that dispatch phases asynchronously prefer it over
// Resolve so an unaligned action's index probe suspends the dispatch the
// way action bodies suspend on foreign operations, instead of blocking
// the dispatching thread on a cross-partition ship.
type AsyncResolver func(env *Env, field string, k func(int64, error))

// Action is one unit of transaction work, bound to a single value of a
// single field of a single table — the granularity DORA routes on.
type Action struct {
	// Table names the table this action touches.
	Table string
	// KeyField is the field Key is a value of (e.g. "s_id" or "sub_nbr").
	KeyField string
	// Key is the routing/locking value in KeyField's space. Every row the
	// body touches must carry this value in KeyField.
	Key int64
	// Mode is Read or Write.
	Mode Mode
	// Ranged declares that the action logically touches every routing
	// value in [RangeLo, RangeHi] (a range scan) rather than just Key.
	// DORA's hierarchical local lock table covers the interval with one
	// coarse S/X lock per granule instead of per-key locks. Key must lie
	// inside the interval (it remains the routing target), and the lock
	// covers the intersection of the interval with the owning partition's
	// ranges — partition-local logical locking, exactly as for point
	// actions.
	Ranged  bool
	RangeLo int64
	RangeHi int64
	// Resolve translates Key into other fields' value spaces when the
	// engine locks or routes on a different field. May be nil when
	// KeyField always matches the lock and partition fields.
	Resolve Resolver
	// ResolveAsync is the non-blocking form of Resolve. When set, an
	// asynchronously dispatching engine routes the unaligned action
	// without parking its dispatcher; engines running blocking ships
	// ignore it and use Resolve.
	ResolveAsync AsyncResolver
	// Run is the body. A non-nil error aborts the transaction.
	Run func(env *Env) error
	// Label is an optional human-readable name (designer, monitor).
	Label string
	// LateKey marks actions whose Key is computed by an earlier phase
	// (the builder leaves it zero and a prior action fills it in). The
	// DORA engine then cannot claim this action's lock up front, so such
	// actions fall outside the deadlock-freedom guarantee and rely on the
	// local wait timeout.
	LateKey bool
}

// Phase is a set of actions with no data dependencies among them; they
// may execute in parallel. Consecutive phases are separated by an RVP.
type Phase struct {
	Actions []*Action
}

// Flow is a transaction flow graph: phases executed in order, with an
// implicit rendezvous point between consecutive phases and a final RVP
// deciding commit or abort.
type Flow struct {
	// Name identifies the transaction type (statistics, designer).
	Name   string
	Phases []Phase
	// Params is the flow's parameter block, handed to every body and
	// resolver as Env.Params. Builders point it at the struct that embeds
	// the Flow (see the package comment); a pointer stored in an
	// interface costs no allocation. Flows whose bodies are closures
	// leave it nil.
	Params any
	// inline backs Phases for flows built with AddPhase until they grow
	// past two phases, so building a typical flow allocates the Flow
	// once instead of once more per phase.
	inline [2]Phase
}

// Env returns the execution environment for running the flow's bodies
// and resolvers as transaction t on session ses. Engines set Async
// themselves where they host continuations.
func (f *Flow) Env(t *tx.Txn, ses *sm.Session) Env {
	return Env{Txn: t, Ses: ses, Params: f.Params}
}

// NewFlow starts a flow-graph builder.
func NewFlow(name string) *Flow { return &Flow{Name: name} }

// AddPhase appends a phase with the given actions and returns the flow.
// The phase keeps the slice it is handed: AddPhase(ptrs[:k]...) over an
// array in the builder's struct allocates nothing.
func (f *Flow) AddPhase(actions ...*Action) *Flow {
	if f.Phases == nil {
		f.Phases = f.inline[:0]
	}
	f.Phases = append(f.Phases, Phase{Actions: actions})
	return f
}

// NumActions returns the total number of actions in the flow.
func (f *Flow) NumActions() int {
	n := 0
	for _, p := range f.Phases {
		n += len(p.Actions)
	}
	return n
}

// Record is re-exported for workload convenience.
type Record = tuple.Record
