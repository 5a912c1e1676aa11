package tpcc

import (
	"math/rand"
	"testing"

	"dora/internal/xct"
)

// TestBuilderAllocs: building a TPC-C transaction of the spec's sizes is
// one heap object, as in the other workloads (TPC-C is not gated on it;
// this keeps the idiom from eroding).
func TestBuilderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	db := &DB{Scale: DefaultScale(2)}
	items := []OrderItem{{IID: 1, SupplyW: 1, Qty: 2}, {IID: 2, SupplyW: 2, Qty: 1}, {IID: 3, SupplyW: 1, Qty: 3}}
	for _, c := range []struct {
		name  string
		build func() *xct.Flow
	}{
		{"NewOrder", func() *xct.Flow { return db.NewOrderTxn(1, 2, 3, items) }},
		{"Payment", func() *xct.Flow { return db.PaymentTxn(1, 2, 2, 3, 4, 500) }},
		{"OrderStatus", func() *xct.Flow { return db.OrderStatusTxn(1, 2, 3) }},
		{"Delivery", func() *xct.Flow { return db.DeliveryTxn(1, 5) }},
		{"StockLevel", func() *xct.Flow { return db.StockLevelTxn(1, 2, 15) }},
	} {
		if n := testing.AllocsPerRun(200, func() { c.build() }); n != 1 {
			t.Errorf("%s: %.1f allocs, want 1", c.name, n)
		}
	}
}

// TestNewOrderShape: a New-Order has one item read per line and one stock
// update per distinct supply warehouse, in order of first appearance, and
// past the inline sizes it still builds every action.
func TestNewOrderShape(t *testing.T) {
	db := &DB{Scale: DefaultScale(4)}
	items := make([]OrderItem, 40)
	for i := range items {
		items[i] = OrderItem{IID: int64(i + 1), SupplyW: int64(4 - i%3), Qty: 1}
	}
	for _, n := range []int{3, 15, 40} {
		f := db.NewOrderTxn(1, 1, 1, items[:n])
		p1 := f.Phases[0].Actions
		supply := min(n, 3)
		if len(f.Phases) != 2 || len(p1) != 3+n+supply || len(f.Phases[1].Actions) != 3 {
			t.Fatalf("%d lines: phases %d, phase 1 %d actions", n, len(f.Phases), len(p1))
		}
		for i := 0; i < n; i++ {
			if a := p1[3+i]; a.Table != "item" || a.Key != int64(i+1) || a.Run == nil {
				t.Fatalf("%d lines: action %d = %s/%d", n, 3+i, a.Table, a.Key)
			}
		}
		for k := 0; k < supply; k++ {
			if a := p1[3+n+k]; a.Table != "stock" || a.Key != int64(4-k) || a.Run == nil {
				t.Fatalf("%d lines: stock action %d = %s/%d", n, k, a.Table, a.Key)
			}
		}
	}
}

// BenchmarkFlowBuild reports the builders' cost per transaction of the
// standard TPC-C mix, drawn at the mix's weights.
func BenchmarkFlowBuild(b *testing.B) {
	db := &DB{Scale: DefaultScale(2)}
	mix := db.NewMix(MixOptions{})
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mix.Pick(rng).Build(rng)
	}
}
