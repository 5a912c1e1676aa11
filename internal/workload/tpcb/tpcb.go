// Package tpcb implements the TPC-B benchmark (the companion DORA paper's
// third workload): branches, tellers, accounts and a history table, with
// the single account-update transaction. Its interest here is the branch
// row hotspot: every transaction updates one of few branch rows, which
// stresses both the centralized lock manager (conventional) and a single
// partition queue (DORA).
package tpcb

import (
	"math/rand"

	"dora/internal/catalog"
	"dora/internal/sm"
	"dora/internal/tuple"
	"dora/internal/workload"
	"dora/internal/xct"
)

// Per spec ratios (scaled down by default).
const (
	// TellersPerBranch is the spec ratio.
	TellersPerBranch = 10
)

// DB holds the loaded TPC-B tables.
type DB struct {
	SM       *sm.SM
	Branches int64
	// AccountsPerBranch is configurable (spec: 100000).
	AccountsPerBranch int64

	Branch  *catalog.Table
	Teller  *catalog.Table
	Account *catalog.Table
	History *catalog.Table

	hseq int64
}

// TKey packs a teller key; AKey an account key.
func (db *DB) TKey(b, t int64) int64 { return b*TellersPerBranch + t }

// AKey packs an account key.
func (db *DB) AKey(b, a int64) int64 { return b*db.AccountsPerBranch + a }

// Domains returns DORA routing domains.
func (db *DB) Domains() map[string][2]int64 {
	return map[string][2]int64{
		"branch":       {1, db.Branches},
		"teller":       {1, db.Branches},
		"account":      {1, db.Branches},
		"history_tpcb": {1, db.Branches},
	}
}

// Load creates and fills the schema with b branches.
func Load(s *sm.SM, branches, accountsPerBranch int64) (*DB, error) {
	db := &DB{SM: s, Branches: branches, AccountsPerBranch: accountsPerBranch}
	intf := func(names ...string) []catalog.Field {
		out := make([]catalog.Field, len(names))
		for i, n := range names {
			out[i] = catalog.Field{Name: n, Type: tuple.TInt}
		}
		return out
	}
	var err error
	db.Branch, err = s.CreateTable(sm.TableSpec{
		Name: "branch", Fields: intf("b_id", "balance"),
		KeyFields: []string{"b_id"},
		Key:       func(r tuple.Record) int64 { return r[0].Int },
	})
	if err != nil {
		return nil, err
	}
	db.Teller, err = s.CreateTable(sm.TableSpec{
		Name: "teller", Fields: intf("b_id", "t_id", "balance"),
		KeyFields: []string{"b_id", "t_id"},
		Key:       func(r tuple.Record) int64 { return db.TKey(r[0].Int, r[1].Int) },
		RouteRange: func(lo, hi int64) (int64, int64) {
			return db.TKey(lo, 1), db.TKey(hi, TellersPerBranch)
		},
	})
	if err != nil {
		return nil, err
	}
	db.Account, err = s.CreateTable(sm.TableSpec{
		Name: "account", Fields: intf("b_id", "a_id", "balance"),
		KeyFields: []string{"b_id", "a_id"},
		Key:       func(r tuple.Record) int64 { return db.AKey(r[0].Int, r[1].Int) },
		RouteRange: func(lo, hi int64) (int64, int64) {
			return db.AKey(lo, 1), db.AKey(hi, db.AccountsPerBranch)
		},
	})
	if err != nil {
		return nil, err
	}
	db.History, err = s.CreateTable(sm.TableSpec{
		Name: "history_tpcb", Fields: intf("b_id", "h_seq", "t_id", "a_id", "delta"),
		KeyFields: []string{"b_id", "h_seq"},
		Key:       func(r tuple.Record) int64 { return r[0].Int<<40 | r[1].Int },
		RouteRange: func(lo, hi int64) (int64, int64) {
			return lo << 40, (hi+1)<<40 - 1
		},
	})
	if err != nil {
		return nil, err
	}

	ses := s.Session(0)
	txn := s.Begin()
	count := 0
	ins := func(t *catalog.Table, vals ...int64) error {
		rec := make(tuple.Record, len(vals))
		for i, v := range vals {
			rec[i] = tuple.I(v)
		}
		if err := ses.Insert(txn, t, rec); err != nil {
			return err
		}
		count++
		if count%2000 == 0 {
			if err := s.Commit(txn); err != nil {
				return err
			}
			txn = s.Begin()
		}
		return nil
	}
	for b := int64(1); b <= branches; b++ {
		if err := ins(db.Branch, b, 0); err != nil {
			return nil, err
		}
		for t := int64(1); t <= TellersPerBranch; t++ {
			if err := ins(db.Teller, b, t, 0); err != nil {
				return nil, err
			}
		}
		for a := int64(1); a <= accountsPerBranch; a++ {
			if err := ins(db.Account, b, a, 0); err != nil {
				return nil, err
			}
		}
	}
	if err := s.Commit(txn); err != nil {
		return nil, err
	}
	return db, nil
}

// accountUpdate is one AccountUpdate transaction in a single heap object:
// its flow graph, its parameters, its four actions and the phase slices'
// backing, and the history row the insert writes (see package xct on the
// idiom). Bodies reach it through env.Params.
type accountUpdate struct {
	xct.Flow
	db                 *DB
	b, t, a, delta, hs int64
	acts               [4]xct.Action
	ptrs               [4]*xct.Action
	hist               [5]tuple.Value
}

// AccountUpdate builds the TPC-B transaction: update account, teller and
// branch balances by delta (three parallel single-site writes), then
// insert the history row.
func (db *DB) AccountUpdate(b, t, a, delta, hseq int64) *xct.Flow {
	u := &accountUpdate{db: db, b: b, t: t, a: a, delta: delta, hs: hseq}
	u.Name, u.Params = "AccountUpdate", u
	u.acts = [4]xct.Action{
		{Table: "account", KeyField: "b_id", Key: b, Mode: xct.Write, Label: "upd-acct", Run: updAccount},
		{Table: "teller", KeyField: "b_id", Key: b, Mode: xct.Write, Label: "upd-teller", Run: updTeller},
		{Table: "branch", KeyField: "b_id", Key: b, Mode: xct.Write, Label: "upd-branch", Run: updBranch},
		{Table: "history_tpcb", KeyField: "b_id", Key: b, Mode: xct.Write, Label: "ins-h", Run: insHistory},
	}
	for i := range u.acts {
		u.ptrs[i] = &u.acts[i]
	}
	return u.AddPhase(u.ptrs[:3]...).AddPhase(u.ptrs[3:]...)
}

func updAccount(env *xct.Env) error {
	u := env.Params.(*accountUpdate)
	return env.Ses.MutateWith(env.Txn, u.db.Account, u.db.AKey(u.b, u.a), addDelta2, u)
}

func updTeller(env *xct.Env) error {
	u := env.Params.(*accountUpdate)
	return env.Ses.MutateWith(env.Txn, u.db.Teller, u.db.TKey(u.b, u.t), addDelta2, u)
}

func updBranch(env *xct.Env) error {
	u := env.Params.(*accountUpdate)
	return env.Ses.MutateWith(env.Txn, u.db.Branch, u.b, addDelta1, u)
}

func insHistory(env *xct.Env) error {
	u := env.Params.(*accountUpdate)
	u.hist = [5]tuple.Value{tuple.I(u.b), tuple.I(u.hs), tuple.I(u.t), tuple.I(u.a), tuple.I(u.delta)}
	return env.Ses.Insert(env.Txn, u.db.History, u.hist[:])
}

// addDelta2 adds the transaction's delta to field 2 (account and teller
// balance); addDelta1 to field 1 (branch balance).
func addDelta2(r tuple.Record, arg any) tuple.Record {
	r[2] = tuple.I(r[2].Int + arg.(*accountUpdate).delta)
	return r
}

func addDelta1(r tuple.Record, arg any) tuple.Record {
	r[1] = tuple.I(r[1].Int + arg.(*accountUpdate).delta)
	return r
}

// NewMix returns the single-transaction TPC-B mix. The history sequence
// is drawn from the client rng (collision-free per client via stride).
func (db *DB) NewMix(bgen workload.KeyGen) workload.Mix {
	if bgen == nil {
		bgen = workload.Uniform{Lo: 1, Hi: db.Branches}
	}
	return workload.Mix{
		{Name: "AccountUpdate", Weight: 100, Build: func(rng *rand.Rand) *xct.Flow {
			b := bgen.Next(rng)
			t := 1 + rng.Int63n(TellersPerBranch)
			a := 1 + rng.Int63n(db.AccountsPerBranch)
			hseq := rng.Int63n(1 << 39) // sparse: collisions abort & retry
			return db.AccountUpdate(b, t, a, rng.Int63n(2000)-1000, hseq)
		}},
	}
}
