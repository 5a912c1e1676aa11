// Benchmarks regenerating every experiment (one per table/figure of the
// demonstrated system; see README.md's experiment index). Each benchmark
// prints the experiment's table via b.Log, so
//
//	go test -bench=. -benchmem
//
// reproduces the full result set at smoke scale; cmd/dorabench runs the
// same experiments at paper scale with flags.
package dora_test

import (
	"testing"
	"time"

	"dora/internal/exp"
)

func quickCfg() exp.Config { return exp.Config{Quick: true} }

func runTable(b *testing.B, f func() (*exp.Table, error)) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb, err := f()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tb.Render())
		}
	}
}

func BenchmarkE1AccessPatterns(b *testing.B) {
	runTable(b, func() (*exp.Table, error) { return exp.E1AccessPatterns(quickCfg()) })
}

func BenchmarkE2VaryingLoad(b *testing.B) {
	runTable(b, func() (*exp.Table, error) { return exp.E2VaryingLoad(quickCfg(), []int{1, 4, 16}) })
}

func BenchmarkE3IntraParallel(b *testing.B) {
	runTable(b, func() (*exp.Table, error) { return exp.E3IntraParallel(quickCfg()) })
}

func BenchmarkE4CriticalSections(b *testing.B) {
	runTable(b, func() (*exp.Table, error) { return exp.E4CriticalSections(quickCfg()) })
}

func BenchmarkE5PeakThroughput(b *testing.B) {
	runTable(b, func() (*exp.Table, error) { return exp.E5PeakThroughput(quickCfg()) })
}

func BenchmarkE6Rebalance(b *testing.B) {
	cfg := quickCfg()
	cfg.Duration = 800 * time.Millisecond // the balancer needs time to react
	runTable(b, func() (*exp.Table, error) { return exp.E6Rebalance(cfg) })
}

func BenchmarkE7Alignment(b *testing.B) {
	runTable(b, func() (*exp.Table, error) { return exp.E7Alignment(quickCfg()) })
}

func BenchmarkE8FlowGraphs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb, graphs, err := exp.E8FlowGraphs()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tb.Render())
			for _, g := range graphs {
				b.Log("\n" + g)
			}
		}
	}
}

func BenchmarkE9PhysicalDesign(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb, rendered, err := exp.E9PhysicalDesign(8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tb.Render())
			b.Log("\n" + rendered)
		}
	}
}

func BenchmarkE10CoreScaling(b *testing.B) {
	runTable(b, func() (*exp.Table, error) { return exp.E10CoreScaling(quickCfg(), []int{1, 2, 4}) })
}

func BenchmarkE11LogScalability(b *testing.B) {
	runTable(b, func() (*exp.Table, error) { return exp.E11LogScalability(quickCfg(), []int{1, 4, 8}) })
}

func BenchmarkE12AccessPathLatching(b *testing.B) {
	runTable(b, func() (*exp.Table, error) { return exp.E12AccessPathLatching(quickCfg()) })
}

func BenchmarkE13PhysicalMaintenance(b *testing.B) {
	runTable(b, func() (*exp.Table, error) { return exp.E13PhysicalMaintenance(quickCfg()) })
}

func BenchmarkE14ContinuationShips(b *testing.B) {
	runTable(b, func() (*exp.Table, error) { return exp.E14ContinuationShips(quickCfg()) })
}

func BenchmarkE15PageCleaning(b *testing.B) {
	runTable(b, func() (*exp.Table, error) { return exp.E15PageCleaning(quickCfg()) })
}

func BenchmarkE16Replication(b *testing.B) {
	runTable(b, func() (*exp.Table, error) { return exp.E16Replication(quickCfg()) })
}

func BenchmarkA1PartitionCount(b *testing.B) {
	runTable(b, func() (*exp.Table, error) { return exp.A1PartitionCount(quickCfg(), []int{1, 4, 8}) })
}

func BenchmarkA2GroupCommit(b *testing.B) {
	runTable(b, func() (*exp.Table, error) { return exp.A2GroupCommit(quickCfg(), []int{1, 16}) })
}

func BenchmarkE17RedoScalability(b *testing.B) {
	runTable(b, func() (*exp.Table, error) { return exp.E17RedoScalability(quickCfg()) })
}

func BenchmarkE18LatencyAttribution(b *testing.B) {
	runTable(b, func() (*exp.Table, error) { return exp.E18LatencyAttribution(quickCfg()) })
}

func BenchmarkE19LockHierarchy(b *testing.B) {
	runTable(b, func() (*exp.Table, error) { return exp.E19LockHierarchy(quickCfg()) })
}
