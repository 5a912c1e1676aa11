package exp

import (
	"fmt"
	"math/rand"

	"dora/internal/catalog"
	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/engine/conventional"
	"dora/internal/sm"
	"dora/internal/tuple"
	"dora/internal/tx"
	"dora/internal/workload"
	"dora/internal/xct"
)

// E14ContinuationShips measures the asynchronous continuation-passing
// ship path on a workload built to be all cross-partition traffic: every
// transaction's single action runs on an "acct" partition worker and
// performs one foreign operation on the "audit" table, whose subtrees
// are owned by different workers. The acct worker suspends the action,
// keeps draining its inbox, and resumes when the audit worker enqueues
// the continuation back.
//
// The table reports, per engine: saturation throughput, the ship counts
// by protocol (a worker never parks, so DORA's blocking count is zero),
// and "overlap" — actions a worker executed while one of its earlier
// actions was suspended on an in-flight foreign operation. Overlap is
// the direct proof that sender threads drain their inboxes while
// foreign ops are in flight. The conventional engine has no partitions
// and no ships; its row is the comparison baseline.
func E14ContinuationShips(c Config) (*Table, error) {
	c = c.fill()
	tb := &Table{
		Title:  "E14  continuation ships: cross-partition txn throughput at saturation",
		Header: []string{"engine", "tps", "blocking ships", "cont ships", "overlap execs", "side effects"},
		Caption: "every txn: local acct update + one foreign audit op (always another worker's\n" +
			"subtree). overlap execs = actions a worker ran while an earlier action of its\n" +
			"was suspended on an in-flight foreign op (sender kept draining). side\n" +
			"effects = audit total == acct total == committed (exactly-once).\n" +
			"conventional has no ships: comparison baseline.",
	}

	for _, m := range []struct{ name, engine string }{
		{"conventional", "conventional"},
		{"dora/continuation", "dora"},
	} {
		row, err := e14Run(c, m.engine, m.name)
		if err != nil {
			return nil, fmt.Errorf("e14 %s: %w", m.name, err)
		}
		tb.Rows = append(tb.Rows, row)
	}
	return tb, nil
}

// e14Work is the simulated per-record compute of each transaction half
// (see xferFlow).
const e14Work = 2000

// e14DB is the two-table micro-schema: acct and audit, both partitioned
// by id over the same domain, served by DISJOINT worker sets (every
// table gets its own partitions), so an audit access from an acct
// worker is always a ship.
type e14DB struct {
	acct, audit *catalog.Table
	rows        int64
}

func e14Load(s *sm.SM, rows int64) (*e14DB, error) {
	spec := func(name string) sm.TableSpec {
		return sm.TableSpec{
			Name: name,
			Fields: []catalog.Field{
				{Name: "id", Type: tuple.TInt},
				{Name: "n", Type: tuple.TInt},
			},
			KeyFields: []string{"id"},
			Key:       func(r tuple.Record) int64 { return r[0].Int },
		}
	}
	acct, err := s.CreateTable(spec("acct"))
	if err != nil {
		return nil, err
	}
	audit, err := s.CreateTable(spec("audit"))
	if err != nil {
		return nil, err
	}
	ses := s.Session(0)
	txn := s.Begin()
	for i := int64(1); i <= rows; i++ {
		if err := ses.Insert(txn, acct, tuple.Record{tuple.I(i), tuple.I(0)}); err != nil {
			return nil, err
		}
		if err := ses.Insert(txn, audit, tuple.Record{tuple.I(i), tuple.I(0)}); err != nil {
			return nil, err
		}
		if i%2000 == 0 {
			if err := s.Commit(txn); err != nil {
				return nil, err
			}
			txn = s.Begin()
		}
	}
	if err := s.Commit(txn); err != nil {
		return nil, err
	}
	return &e14DB{acct: acct, audit: audit, rows: rows}, nil
}

// xferFlow is the E14 transaction: one action, routed to acct[k]'s
// partition, that updates acct[k] locally and audit[k] remotely. Under
// DORA the foreign op suspends the action; the conventional engine
// offers no continuation host and runs it inline.
//
// Both halves carry e14Work spin iterations of simulated per-record
// compute: a suspended sender overlaps its next actions with the
// owner's work — the structural property the experiment measures (not
// just message latency).
func (db *e14DB) xferFlow(k int64) *xct.Flow {
	bump := func(r tuple.Record) tuple.Record {
		spin(e14Work)
		r[1] = tuple.I(r[1].Int + 1)
		return r
	}
	return xct.NewFlow("xfer").AddPhase(&xct.Action{
		Table: "acct", KeyField: "id", Key: k, Mode: xct.Write, Label: "xfer",
		Run: func(env *xct.Env) error {
			if err := env.Ses.Mutate(env.Txn, db.acct, k, bump); err != nil {
				return err
			}
			if env.Async != nil {
				resume := env.Async.Suspend()
				env.Ses.MutateAsync(env.Txn, db.audit, k, bump, env.Async.Home(), resume)
				return nil
			}
			// No continuation host (conventional engine): read, then
			// update, as two synchronous accesses.
			rec, err := env.Ses.Read(env.Txn, db.audit, k)
			if err != nil {
				return err
			}
			return env.Ses.Update(env.Txn, db.audit, k, bump(rec.Clone()))
		},
	})
}

func e14Run(c Config, which, label string) ([]string, error) {
	s, err := sm.Open(sm.Options{Frames: 1 << 14})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	rows := c.Subscribers / 4
	if rows < 256 {
		rows = 256
	}
	db, err := e14Load(s, rows)
	if err != nil {
		return nil, err
	}
	var e engine.Engine
	switch which {
	case "conventional":
		e = conventional.New(s)
	case "dora":
		e = dora.New(s, dora.Config{
			PartitionsPerTable: c.Partitions,
			Domains:            map[string][2]int64{"acct": {1, rows}, "audit": {1, rows}},
		})
	default:
		return nil, fmt.Errorf("unknown engine %q", which)
	}
	defer e.Close()

	mix := workload.Mix{{
		Name: "xfer", Weight: 1,
		Build: func(rng *rand.Rand) *xct.Flow {
			return db.xferFlow(1 + rng.Int63n(rows))
		},
	}}
	dr := workload.Driver{
		Engine: e, Mix: mix,
		Clients: c.Clients, Duration: c.Duration, Seed: 1717,
	}
	res := dr.Run()

	// Snapshot the ship accounting before the verification scans below —
	// those ship (blocking, from a plain session) and would smear the
	// workload's numbers.
	blockShips, contShips, overlap := "-", "-", "-"
	if d, isDora := e.(*dora.Dora); isDora {
		ss := d.ShipSnapshot()
		blockShips = d2(ss.BlockingShips)
		contShips = d2(ss.ContShips)
		overlap = d2(ss.OverlapExec)
	}

	// Exactly-once side effects: every commit bumped acct[k] and
	// audit[k] once; every abort compensated both. The totals must agree
	// with each other and with the commit count.
	acctTotal, err := e14Total(s, db.acct)
	if err != nil {
		return nil, err
	}
	auditTotal, err := e14Total(s, db.audit)
	if err != nil {
		return nil, err
	}
	if acctTotal != auditTotal || acctTotal != res.Committed {
		return nil, fmt.Errorf("side effects diverged: acct=%d audit=%d committed=%d",
			acctTotal, auditTotal, res.Committed)
	}
	return []string{label, f1(res.Throughput), blockShips, contShips, overlap, "ok"}, nil
}

// e14Total sums column n over all rows of tbl (read through a plain
// session; ships to the owning workers under DORA).
func e14Total(s *sm.SM, tbl *catalog.Table) (int64, error) {
	ses := s.Session(99)
	var total int64
	var txn *tx.Txn = s.Begin()
	err := ses.ScanRange(txn, tbl, 1, int64(1)<<40, func(k int64, r tuple.Record) bool {
		total += r[1].Int
		return true
	})
	return total, err
}
