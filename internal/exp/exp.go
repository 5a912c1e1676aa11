// Package exp implements the reproduction experiments, one per panel of
// the demonstrated system (indexed in README.md): E1 access patterns, E2
// performance under varying load, E4 critical sections per transaction
// and E5 peak throughput (the companion DORA paper's claims behind the
// demo's comparison), E6 load balancing under a moving hot spot, E7 the
// alignment advisor, and E8–E9 the designer's flow graphs and physical
// design. cmd/dorabench runs them and prints their tables.
package exp

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/engine/conventional"
	"dora/internal/metrics"
	"dora/internal/sm"
	"dora/internal/workload/tatp"
)

// Config scales the experiments.
type Config struct {
	// Subscribers is the TATP scale (default 20000; Quick: 2000).
	Subscribers int64
	// Warehouses is the TPC-C scale (default 4; Quick: 2).
	Warehouses int64
	// Branches is the TPC-B scale (default 8; Quick: 4).
	Branches int64
	// Duration is the measured time per point (default 2s; Quick 300ms).
	Duration time.Duration
	// Clients is the default client count (default 2×GOMAXPROCS).
	Clients int
	// Partitions per table for DORA (default GOMAXPROCS, min 2).
	Partitions int
	// Quick shrinks everything for unit tests and smoke runs.
	Quick bool
}

// fill resolves defaults.
func (c Config) fill() Config {
	if c.Quick {
		if c.Subscribers == 0 {
			c.Subscribers = 2000
		}
		if c.Warehouses == 0 {
			c.Warehouses = 2
		}
		if c.Branches == 0 {
			c.Branches = 4
		}
		if c.Duration == 0 {
			c.Duration = 300 * time.Millisecond
		}
	}
	if c.Subscribers == 0 {
		c.Subscribers = 20000
	}
	if c.Warehouses == 0 {
		c.Warehouses = 4
	}
	if c.Branches == 0 {
		c.Branches = 8
	}
	if c.Duration == 0 {
		c.Duration = 2 * time.Second
	}
	if c.Clients == 0 {
		c.Clients = 2 * runtime.GOMAXPROCS(0)
	}
	if c.Partitions == 0 {
		c.Partitions = runtime.GOMAXPROCS(0)
		if c.Partitions < 2 {
			c.Partitions = 2
		}
		if c.Partitions > 8 {
			c.Partitions = 8
		}
	}
	return c
}

// tatpRig loads a fresh TATP database and returns the requested engine
// over it (fresh state per engine keeps comparisons fair). Callers must
// invoke close when done: it stops the engine's workers and the storage
// manager's log flush daemon.
func tatpRig(c Config, which string) (db *tatp.DB, e engine.Engine, cs *metrics.CriticalSectionStats, close func(), err error) {
	cs = &metrics.CriticalSectionStats{}
	s, err := sm.Open(sm.Options{Frames: 1 << 14, CS: cs})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	db, err = tatp.Load(s, c.Subscribers)
	if err != nil {
		_ = s.Close()
		return nil, nil, nil, nil, err
	}
	switch which {
	case "conventional":
		e = conventional.New(s)
	case "dora":
		e = dora.New(s, dora.Config{PartitionsPerTable: c.Partitions, Domains: db.Domains()})
	default:
		_ = s.Close()
		return nil, nil, nil, nil, fmt.Errorf("exp: unknown engine %q", which)
	}
	return db, e, cs, func() { _ = e.Close(); _ = s.Close() }, nil
}

// Table is a printable result table.
type Table struct {
	Title   string
	Header  []string
	Rows    [][]string
	Caption string
}

// Render aligns the table as text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for i, w := range widths {
		t.Header[i] = strings.Repeat("-", w)
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	if t.Caption != "" {
		fmt.Fprintf(&b, "%s\n", t.Caption)
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func d2(v int64) string   { return fmt.Sprintf("%d", v) }
