// Command dorabench runs the reproduction experiments (E1–E19 and the
// A1–A2 ablations; see README.md) at configurable scale and prints their
// result tables.
//
// Usage:
//
//	dorabench -exp e5 -subscribers 50000 -duration 3s
//	dorabench -exp all -quick
//	dorabench -exp e15 -arrival 50000 -inflight 512   # open-loop overload
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dora/internal/exp"
)

func main() {
	var (
		which    = flag.String("exp", "all", "experiment id (e1..e19, a1..a2, comma-separated, or 'all')")
		subs     = flag.Int64("subscribers", 20000, "TATP scale (subscribers)")
		whs      = flag.Int64("warehouses", 4, "TPC-C scale (warehouses)")
		branches = flag.Int64("branches", 8, "TPC-B scale (branches)")
		dur      = flag.Duration("duration", 2*time.Second, "measured duration per point")
		clients  = flag.Int("clients", 0, "client count (0 = 2x GOMAXPROCS)")
		parts    = flag.Int("partitions", 0, "DORA partitions per table (0 = auto)")
		arrival  = flag.Float64("arrival", 0, "open-loop offered load in txn/s (0 = 2x measured capacity; E15)")
		inflight = flag.Int("inflight", 0, "open-loop in-flight cap (0 = 256; E15)")
		redoW    = flag.Int("redo-workers", 0, "parallel-redo appliers for E17's replica rows (0 = 4)")
		quick    = flag.Bool("quick", false, "smoke-test scale")
		asJSON   = flag.Bool("json", false, "emit result tables as JSON (for BENCH_*.json artifacts)")
	)
	flag.Parse()
	jsonOut = *asJSON

	cfg := exp.Config{
		Subscribers: *subs, Warehouses: *whs, Branches: *branches,
		Duration: *dur, Clients: *clients, Partitions: *parts, Quick: *quick,
		ArrivalRate: *arrival, MaxInFlight: *inflight, RedoWorkers: *redoW,
	}
	if *quick {
		cfg = exp.Config{
			Quick: true, Clients: *clients, Partitions: *parts,
			ArrivalRate: *arrival, MaxInFlight: *inflight, RedoWorkers: *redoW,
		}
	}

	ids := strings.Split(strings.ToLower(*which), ",")
	if *which == "all" {
		ids = []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15", "e16", "e17", "e18", "e19", "a1", "a2"}
	}
	for _, id := range ids {
		if err := runOne(strings.TrimSpace(id), cfg); err != nil {
			fmt.Fprintf(os.Stderr, "dorabench: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

func runOne(id string, cfg exp.Config) error {
	switch id {
	case "e1":
		return show(exp.E1AccessPatterns(cfg))
	case "e2":
		return show(exp.E2VaryingLoad(cfg, nil))
	case "e3":
		return show(exp.E3IntraParallel(cfg))
	case "e4":
		return show(exp.E4CriticalSections(cfg))
	case "e5":
		return show(exp.E5PeakThroughput(cfg))
	case "e6":
		return show(exp.E6Rebalance(cfg))
	case "e7":
		return show(exp.E7Alignment(cfg))
	case "e8":
		tb, graphs, err := exp.E8FlowGraphs()
		if err != nil {
			return err
		}
		fmt.Println(tb.Render())
		for _, g := range graphs {
			fmt.Println(g)
		}
		return nil
	case "e9":
		tb, rendered, err := exp.E9PhysicalDesign(8)
		if err != nil {
			return err
		}
		fmt.Println(tb.Render())
		fmt.Println(rendered)
		return nil
	case "e10":
		return show(exp.E10CoreScaling(cfg, nil))
	case "e11":
		return show(exp.E11LogScalability(cfg, nil))
	case "e12":
		return show(exp.E12AccessPathLatching(cfg))
	case "e13":
		return show(exp.E13PhysicalMaintenance(cfg))
	case "e14":
		return show(exp.E14ContinuationShips(cfg))
	case "e15":
		return show(exp.E15PageCleaning(cfg))
	case "e16":
		return show(exp.E16Replication(cfg))
	case "e17":
		return show(exp.E17RedoScalability(cfg))
	case "e18":
		return show(exp.E18LatencyAttribution(cfg))
	case "e19":
		return show(exp.E19LockHierarchy(cfg))
	case "a1":
		return show(exp.A1PartitionCount(cfg, nil))
	case "a2":
		return show(exp.A2GroupCommit(cfg, nil))
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
}

// jsonOut switches show to machine-readable output; CI redirects it into
// per-experiment BENCH_*.json files to track the perf trajectory.
var jsonOut bool

func show(tb *exp.Table, err error) error {
	if err != nil {
		return err
	}
	if jsonOut {
		s, jerr := tb.JSON()
		if jerr != nil {
			return jerr
		}
		fmt.Print(s)
		return nil
	}
	fmt.Println(tb.Render())
	return nil
}
