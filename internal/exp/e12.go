package exp

import (
	"fmt"

	"dora/internal/workload"
	"dora/internal/workload/tatp"
)

// E12AccessPathLatching measures what the partitioned access path
// (PLP-style per-partition B+tree subtrees) removes: B+tree node latch
// crabbing. It runs E4's TATP rig on the conventional engine, whose
// indexes stay on the shared latched trees, and on DORA over claimed
// per-partition subtrees, and reports critical sections per committed
// transaction plus throughput at saturation.
//
// The "index latch/txn" column counts only B+tree node latches (the
// access-path serialization); "latch/txn" is the full class including
// buffer-frame/page latches, which remain physical in every mode because
// heap pages are shared structures. The conventional engine never claims
// subtrees: the partitioned path is gated on ownership, and ownership
// only exists under DORA.
func E12AccessPathLatching(c Config) (*Table, error) {
	c = c.fill()
	tb := &Table{
		Title: "E12  access-path latching: B+tree node latches per committed transaction, TATP mix",
		Header: []string{"engine", "index latch/txn", "latch/txn", "contended/txn",
			"lockmgr/txn", "tps"},
		Caption: "index latch/txn = B+tree node crabbing only (what per-partition\n" +
			"subtree ownership removes); latch/txn also counts buffer-frame/page\n" +
			"latches, which remain in all modes. conventional = shared latched trees.",
	}
	for _, m := range []struct{ name, which string }{
		{"conventional", "conventional"},
		{"dora/plp", "dora"},
	} {
		db, e, cs, closeRig, err := tatpRig(c, m.which)
		if err != nil {
			return nil, fmt.Errorf("e12 %s: %w", m.name, err)
		}
		cs.Reset() // exclude the load phase and claim-time rebuilds
		dr := workload.Driver{
			Engine: e, Mix: db.NewMix(tatp.MixOptions{}),
			Clients: c.Clients, Duration: c.Duration, Seed: 1212,
		}
		res := dr.Run()
		snap := cs.Snapshot()
		n := float64(res.Committed)
		if n == 0 {
			n = 1
		}
		tb.Rows = append(tb.Rows, []string{
			m.name,
			f2(float64(snap.IndexLatch) / n),
			f2(float64(snap.Latch) / n),
			f2(float64(snap.Contended) / n),
			f2(float64(snap.LockMgr) / n),
			f1(res.Throughput),
		})
		closeRig()
	}
	return tb, nil
}
