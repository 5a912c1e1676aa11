// Command dorabench runs the reproduction experiments (E1, E2 and E4–E9,
// one per panel of the demonstrated system; see README.md) at
// configurable scale and prints their result tables.
//
// Usage:
//
//	dorabench -exp e5 -subscribers 50000 -duration 3s
//	dorabench -exp all -quick
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
		which    = flag.String("exp", "all", "experiment id (e1, e2, e4..e9, comma-separated, or 'all')")
		subs     = flag.Int64("subscribers", 20000, "TATP scale (subscribers)")
		whs      = flag.Int64("warehouses", 4, "TPC-C scale (warehouses)")
		branches = flag.Int64("branches", 8, "TPC-B scale (branches)")
		dur      = flag.Duration("duration", 2*time.Second, "measured duration per point")
		clients  = flag.Int("clients", 0, "client count (0 = 2x GOMAXPROCS)")
		parts    = flag.Int("partitions", 0, "DORA partitions per table (0 = auto)")
		quick    = flag.Bool("quick", false, "smoke-test scale")
	)
	flag.Parse()

	cfg := exp.Config{
		Subscribers: *subs, Warehouses: *whs, Branches: *branches,
		Duration: *dur, Clients: *clients, Partitions: *parts, Quick: *quick,
	}
	if *quick {
		cfg = exp.Config{Quick: true, Clients: *clients, Partitions: *parts}
	}

	ids := strings.Split(strings.ToLower(*which), ",")
	if *which == "all" {
		ids = []string{"e1", "e2", "e4", "e5", "e6", "e7", "e8", "e9"}
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
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
}

func show(tb *exp.Table, err error) error {
	if err != nil {
		return err
	}
	fmt.Println(tb.Render())
	return nil
}
