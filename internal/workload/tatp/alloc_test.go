package tatp

import (
	"math/rand"
	"testing"

	"dora/internal/xct"
)

// TestBuilderAllocs: building any TATP transaction is one heap object —
// the flow, its parameters, its actions, its phase slices and its scratch
// live in one struct, and the bodies and resolvers capture nothing.
func TestBuilderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	db := &DB{N: 100}
	for _, c := range []struct {
		name  string
		build func() *xct.Flow
	}{
		{"GetSubscriberData", func() *xct.Flow { return db.GetSubscriberData(7) }},
		{"GetNewDestination", func() *xct.Flow { return db.GetNewDestination(7, 2, 8, 12) }},
		{"GetAccessData", func() *xct.Flow { return db.GetAccessData(7, 3) }},
		{"BatchScanSubscribers", func() *xct.Flow { return db.BatchScanSubscribers(1, 50) }},
		{"UpdateSubscriberData", func() *xct.Flow { return db.UpdateSubscriberData(7, 2, 1, 99) }},
		{"UpdateLocation", func() *xct.Flow { return db.UpdateLocation(db.SubNbr(7), 42) }},
		{"InsertCallForwarding", func() *xct.Flow { return db.InsertCallForwarding(db.SubNbr(7), 2, 8, 12, 5) }},
		{"DeleteCallForwarding", func() *xct.Flow { return db.DeleteCallForwarding(db.SubNbr(7), 2, 8) }},
	} {
		if n := testing.AllocsPerRun(200, func() { c.build() }); n != 1 {
			t.Errorf("%s: %.1f allocs, want 1", c.name, n)
		}
	}
}

// BenchmarkFlowBuild reports the builders' cost per transaction of the
// standard TATP mix, drawn at the mix's weights.
func BenchmarkFlowBuild(b *testing.B) {
	db := &DB{N: 1000}
	mix := db.NewMix(MixOptions{})
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mix.Pick(rng).Build(rng)
	}
}
