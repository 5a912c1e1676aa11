// Package conventional implements the baseline thread-to-transaction
// execution engine the paper contrasts DORA against: each client's
// transaction runs start-to-finish on one worker thread, acquiring
// hierarchical locks (database / table / row) through the centralized
// lock manager for every action, under strict two-phase locking.
//
// Because an incoming transaction dictates what data its thread touches,
// accesses are unpredictable and every transaction crosses the lock
// manager's critical sections many times — the scalability problem the
// demo's first panel visualizes and experiment E4 quantifies.
package conventional

import (
	"errors"
	"fmt"
	"sync"

	"dora/internal/lockmgr"
	"dora/internal/metrics"
	"dora/internal/sm"
	"dora/internal/tx"
	"dora/internal/xct"
)

// Engine is the conventional executor.
type Engine struct {
	SM *sm.SM
	LM *lockmgr.Manager

	mu       sync.Mutex
	sessions map[int]*sm.Session

	// Committed and Aborted count transaction outcomes.
	Committed metrics.Counter
	Aborted   metrics.Counter
}

// New returns a conventional engine over the storage manager. The lock
// manager shares the storage manager's critical-section stats.
func New(s *sm.SM) *Engine {
	return &Engine{
		SM:       s,
		LM:       lockmgr.New(s.CS),
		sessions: make(map[int]*sm.Session),
	}
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "conventional" }

// Close implements engine.Engine.
func (e *Engine) Close() error { return nil }

func (e *Engine) session(worker int) *sm.Session {
	e.mu.Lock()
	defer e.mu.Unlock()
	ses := e.sessions[worker]
	if ses == nil {
		ses = e.SM.Session(worker)
		e.sessions[worker] = ses
	}
	return ses
}

// Exec implements engine.Engine: the calling goroutine is the worker
// thread, and it performs every action of the flow itself.
func (e *Engine) Exec(worker int, flow *xct.Flow) error {
	ses := e.session(worker)
	txn := e.SM.Begin()
	env := flow.Env(txn, ses)

	for pi := range flow.Phases {
		for _, a := range flow.Phases[pi].Actions {
			if err := e.execAction(&env, a); err != nil {
				e.abort(&env)
				return fmt.Errorf("conventional: %s/%s: %w", flow.Name, a.Label, err)
			}
		}
	}
	done := make(chan error, 1)
	e.SM.CommitAsync(txn, tx.CompletionFunc(func(err error) { done <- err }))
	// Early lock release: the commit LSN is assigned, so conflicting
	// transactions may run now — log-LSN flush order guarantees none of
	// them becomes durable before this one. Durability itself completes on
	// the log's flush pipeline while we wait.
	e.LM.ReleaseAll(txn.ID)
	if err := <-done; err != nil {
		// Only a log-device failure lands here. The locks are already
		// gone, so a physical rollback could stomp rows a successor
		// transaction now owns — the log is dead anyway, so just report
		// the abort (mirrors DORA's commit path).
		e.Aborted.Inc()
		return err
	}
	e.Committed.Inc()
	return nil
}

func (e *Engine) execAction(env *xct.Env, a *xct.Action) error {
	tbl := e.SM.Cat.Table(a.Table)
	if tbl == nil {
		return fmt.Errorf("unknown table %q", a.Table)
	}
	// Rows are locked in the table's canonical key space (the leading
	// primary-key field); translate if the action's key is in another
	// field's space (a secondary-key access).
	lockField := canonicalField(tbl.Primary.Fields)
	lockVal := a.Key
	if a.KeyField != lockField {
		if a.Resolve == nil {
			return fmt.Errorf("action on %s keyed by %s needs a resolver", a.Table, a.KeyField)
		}
		v, err := a.Resolve(env, lockField)
		if err != nil {
			return err
		}
		lockVal = v
	}
	intent, row := lockmgr.IS, lockmgr.S
	if a.Mode == xct.Write {
		intent, row = lockmgr.IX, lockmgr.X
	}
	txnID := env.Txn.ID
	if err := e.LM.Lock(txnID, lockmgr.DBName(), intent); err != nil {
		return err
	}
	if err := e.LM.Lock(txnID, lockmgr.TableName(tbl.ID), intent); err != nil {
		return err
	}
	if err := e.LM.Lock(txnID, lockmgr.RowName(tbl.ID, lockVal), row); err != nil {
		return err
	}
	return a.Run(env)
}

func (e *Engine) abort(env *xct.Env) {
	// Roll back while still holding locks (strict 2PL), then release.
	if err := e.SM.Rollback(env.Txn); err != nil {
		// Rollback failures leave the database inconsistent; surface loudly.
		panic(fmt.Sprintf("conventional: rollback of txn %d failed: %v", env.Txn.ID, err))
	}
	e.LM.ReleaseAll(env.Txn.ID)
	e.Aborted.Inc()
}

// canonicalField returns the leading primary-key field name.
func canonicalField(fields []string) string {
	if len(fields) == 0 {
		return ""
	}
	return fields[0]
}

// IsAbort reports whether err is a retryable abort (deadlock victim or
// lock timeout) rather than a logic error.
func IsAbort(err error) bool {
	return errors.Is(err, lockmgr.ErrDeadlock) || errors.Is(err, lockmgr.ErrTimeout)
}
