package exp

import (
	"time"

	"dora/internal/dora"
	"dora/internal/metrics"
	"dora/internal/sm"
	"dora/internal/wal"
	"dora/internal/workload"
	"dora/internal/workload/tatp"
)

// A1PartitionCount ablates the number of micro-engines per table: too
// few serialize unrelated keys behind one worker; too many (beyond the
// hardware contexts) only add queue hops. The balancer's job (E6) is to
// find this knee at runtime.
func A1PartitionCount(c Config, counts []int) (*Table, error) {
	c = c.fill()
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8, 16}
	}
	tb := &Table{
		Title:  "A1  ablation: DORA partitions per table vs TATP throughput",
		Header: []string{"partitions/table", "dora tps"},
	}
	for _, n := range counts {
		cs := &metrics.CriticalSectionStats{}
		s, err := sm.Open(sm.Options{Frames: 1 << 14, CS: cs})
		if err != nil {
			return nil, err
		}
		db, err := tatp.Load(s, c.Subscribers)
		if err != nil {
			return nil, err
		}
		e := dora.New(s, dora.Config{PartitionsPerTable: n, Domains: db.Domains()})
		res := (&workload.Driver{
			Engine: e, Mix: db.NewMix(tatp.MixOptions{}),
			Clients: c.Clients, Duration: c.Duration, Seed: 101,
		}).Run()
		_ = e.Close()
		_ = s.Close()
		tb.Rows = append(tb.Rows, []string{d2(int64(n)), f1(res.Throughput)})
	}
	return tb, nil
}

// slowStore wraps the in-memory log store with a simulated device sync
// latency, so group commit has a real batching window to exploit (an
// instant "fsync" never lets two commits overlap).
type slowStore struct {
	*wal.MemStore
	delay time.Duration
}

func (s *slowStore) Sync() error {
	time.Sleep(s.delay)
	return s.MemStore.Sync()
}

// A2GroupCommit ablates the group-commit path: with a 200µs simulated
// log-device sync, the fraction of commit forces absorbed by another
// transaction's flush grows with the client count, and throughput holds
// far above the 1/sync-latency ceiling a one-commit-per-sync log would
// impose.
func A2GroupCommit(c Config, clients []int) (*Table, error) {
	c = c.fill()
	if len(clients) == 0 {
		clients = []int{1, 4, 16, 64}
	}
	const syncDelay = 200 * time.Microsecond
	tb := &Table{
		Title:  "A2  ablation: group commit under a 200us log-sync latency (DORA, TATP)",
		Header: []string{"clients", "tps", "log syncs", "grouped %"},
		Caption: "grouped % = forces absorbed into another force's device sync;\n" +
			"without batching, tps could not exceed 1/sync-latency = 5000/s\n" +
			"for the update transactions.",
	}
	for _, n := range clients {
		cs := &metrics.CriticalSectionStats{}
		s, err := sm.Open(sm.Options{
			Frames:   1 << 14,
			CS:       cs,
			LogStore: &slowStore{MemStore: wal.NewMemStore(), delay: syncDelay},
		})
		if err != nil {
			return nil, err
		}
		db, err := tatp.Load(s, c.Subscribers)
		if err != nil {
			return nil, err
		}
		e := dora.New(s, dora.Config{PartitionsPerTable: c.Partitions, Domains: db.Domains()})
		s0 := s.Log.Stats()
		res := (&workload.Driver{
			Engine: e, Mix: db.NewMix(tatp.MixOptions{}),
			Clients: n, Duration: c.Duration, Seed: 102,
		}).Run()
		s1 := s.Log.Stats()
		forces := s1.Forces - s0.Forces
		syncs := s1.Syncs - s0.Syncs
		_ = e.Close()
		_ = s.Close()
		// The flush daemon may also sync on pending-byte thresholds with
		// no force outstanding, so clamp at zero for the degenerate case.
		pct := 0.0
		if forces > 0 && syncs < forces {
			pct = 100 * float64(forces-syncs) / float64(forces)
		}
		tb.Rows = append(tb.Rows, []string{
			d2(int64(n)), f1(res.Throughput), d2(syncs), f1(pct),
		})
	}
	return tb, nil
}
