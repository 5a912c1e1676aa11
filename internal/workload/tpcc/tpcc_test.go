package tpcc

import (
	"testing"
	"time"

	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/engine/conventional"
	"dora/internal/sm"
	"dora/internal/workload"
)

func smallScale() Scale {
	return Scale{
		Warehouses: 2, DistrictsPerW: 4, CustomersPerD: 50,
		Items: 100, InitialOrdersPerD: 10,
	}
}

func loadDB(t *testing.T) *DB {
	t.Helper()
	s, err := sm.Open(sm.Options{Frames: 4096})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Load(s, smallScale())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func newDora(t *testing.T, db *DB) *dora.Dora {
	t.Helper()
	e := dora.New(db.SM, dora.Config{PartitionsPerTable: 2, Domains: db.Domains()})
	t.Cleanup(func() { _ = e.Close() })
	return e
}

func TestKeyPackingMonotone(t *testing.T) {
	if DKey(1, 4) >= DKey(2, 1) {
		t.Fatal("district keys cross warehouses")
	}
	if CKey(1, 4, 50) >= CKey(2, 1, 1) {
		t.Fatal("customer keys cross warehouses")
	}
	if OLKey(1, 2, 3, 15) >= OLKey(1, 2, 4, 0) {
		t.Fatal("orderline keys cross orders")
	}
	if OKey(1, 2, 3) == OKey(1, 3, 2) {
		t.Fatal("order key collision")
	}
}

func TestLoadCounts(t *testing.T) {
	db := loadDB(t)
	sc := db.Scale
	if got := db.Warehouse.Primary.Tree.Len(); int64(got) != sc.Warehouses {
		t.Fatalf("warehouses = %d", got)
	}
	if got := db.District.Primary.Tree.Len(); int64(got) != sc.Warehouses*sc.DistrictsPerW {
		t.Fatalf("districts = %d", got)
	}
	if got := db.Customer.Primary.Tree.Len(); int64(got) != sc.Warehouses*sc.DistrictsPerW*sc.CustomersPerD {
		t.Fatalf("customers = %d", got)
	}
	if got := db.Stock.Primary.Tree.Len(); int64(got) != sc.Warehouses*sc.Items {
		t.Fatalf("stocks = %d", got)
	}
	if got := db.Orders.Primary.Tree.Len(); int64(got) != sc.Warehouses*sc.DistrictsPerW*sc.InitialOrdersPerD {
		t.Fatalf("orders = %d", got)
	}
	if db.NewOrder.Primary.Tree.Len() == 0 {
		t.Fatal("no new_order rows loaded")
	}
}

// execBoth runs the same scenario against a conventional and a DORA
// engine, each over its own freshly loaded database.
func execBoth(t *testing.T, scenario func(t *testing.T, db *DB, e engine.Engine)) {
	t.Helper()
	for _, mk := range []func(db *DB) engine.Engine{
		func(db *DB) engine.Engine { return conventional.New(db.SM) },
		func(db *DB) engine.Engine {
			return dora.New(db.SM, dora.Config{PartitionsPerTable: 2, Domains: db.Domains()})
		},
	} {
		db := loadDB(t)
		e := mk(db)
		scenario(t, db, e)
		_ = e.Close()
	}
}

func TestNewOrderCommits(t *testing.T) {
	execBoth(t, func(t *testing.T, db *DB, e engine.Engine) {
		items := []OrderItem{{IID: 1, SupplyW: 1, Qty: 2}, {IID: 2, SupplyW: 1, Qty: 1}, {IID: 3, SupplyW: 2, Qty: 3}}
		if err := e.Exec(0, db.NewOrderTxn(1, 1, 1, items)); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		// next_o_id advanced and the order exists.
		ses := db.SM.Session(0)
		rec, err := ses.Read(db.SM.Begin(), db.District, DKey(1, 1))
		if err != nil {
			t.Fatal(err)
		}
		oid := rec[dNextOID].Int - 1
		if oid != db.Scale.InitialOrdersPerD+1 {
			t.Fatalf("allocated o_id = %d", oid)
		}
		if _, err := ses.Read(db.SM.Begin(), db.Orders, OKey(1, 1, oid)); err != nil {
			t.Fatalf("order row missing: %v", err)
		}
		if _, err := ses.Read(db.SM.Begin(), db.OrderLine, OLKey(1, 1, oid, 1)); err != nil {
			t.Fatalf("orderline missing: %v", err)
		}
	})
}

func TestNewOrderInvalidItemRollsBack(t *testing.T) {
	execBoth(t, func(t *testing.T, db *DB, e engine.Engine) {
		items := []OrderItem{{IID: 1, SupplyW: 1, Qty: 1}, {IID: 99999, SupplyW: 1, Qty: 1}}
		err := e.Exec(0, db.NewOrderTxn(1, 1, 1, items))
		if err == nil {
			t.Fatal("invalid item must abort")
		}
		// District next_o_id must be unchanged (rolled back).
		ses := db.SM.Session(0)
		rec, rerr := ses.Read(db.SM.Begin(), db.District, DKey(1, 1))
		if rerr != nil {
			t.Fatal(rerr)
		}
		if rec[dNextOID].Int != db.Scale.InitialOrdersPerD+1 {
			t.Fatalf("next_o_id leaked: %d", rec[dNextOID].Int)
		}
	})
}

func TestPaymentMovesMoney(t *testing.T) {
	execBoth(t, func(t *testing.T, db *DB, e engine.Engine) {
		if err := e.Exec(0, db.PaymentTxn(1, 1, 2, 2, 5, 1000)); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		ses := db.SM.Session(0)
		wrec, _ := ses.Read(db.SM.Begin(), db.Warehouse, 1)
		if wrec[1].Int != 301000 {
			t.Fatalf("warehouse ytd = %d", wrec[1].Int)
		}
		crec, _ := ses.Read(db.SM.Begin(), db.Customer, CKey(2, 2, 5))
		if crec[cBalance].Int != -2000 {
			t.Fatalf("customer balance = %d", crec[cBalance].Int)
		}
		// History row landed.
		if db.History.Primary.Tree.Len() != 1 {
			t.Fatalf("history rows = %d", db.History.Primary.Tree.Len())
		}
	})
}

func TestOrderStatusAndStockLevel(t *testing.T) {
	execBoth(t, func(t *testing.T, db *DB, e engine.Engine) {
		if err := e.Exec(0, db.OrderStatusTxn(1, 1, 1)); err != nil {
			t.Fatalf("%s order status: %v", e.Name(), err)
		}
		if err := e.Exec(0, db.StockLevelTxn(1, 1, 15)); err != nil {
			t.Fatalf("%s stock level: %v", e.Name(), err)
		}
	})
}

func TestDeliveryConsumesNewOrders(t *testing.T) {
	execBoth(t, func(t *testing.T, db *DB, e engine.Engine) {
		before := db.NewOrder.Primary.Tree.Len()
		if err := e.Exec(0, db.DeliveryTxn(1, 3)); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		after := db.NewOrder.Primary.Tree.Len()
		if after >= before {
			t.Fatalf("new_order count %d -> %d", before, after)
		}
	})
}

// TestMixOnBothEngines: the TPC-C mix commits on both engines. It is a
// liveness check, not a throughput gate: each engine is driven in short
// windows until it has committed 20 transactions, and fails only if 10 s
// pass first.
func TestMixOnBothEngines(t *testing.T) {
	db := loadDB(t)
	mix := db.NewMix(MixOptions{})
	commit20 := func(name string, eng engine.Engine, seed int64) {
		t.Helper()
		var committed int64
		deadline := time.Now().Add(10 * time.Second)
		for committed < 20 && time.Now().Before(deadline) {
			res := (&workload.Driver{
				Engine: eng, Mix: mix, Clients: 4,
				Duration: 400 * time.Millisecond, Seed: seed,
			}).Run()
			committed += res.Committed
			seed += 2
		}
		if committed < 20 {
			t.Fatalf("%s committed %d in 10s", name, committed)
		}
	}
	commit20("conventional", conventional.New(db.SM), 3)
	commit20("dora", newDora(t, db), 4)
}

func TestDistrictOIDsNeverCollide(t *testing.T) {
	// Concurrent NewOrders to the same district must allocate unique o_ids.
	db := loadDB(t)
	de := newDora(t, db)
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			items := []OrderItem{{IID: int64(i%10 + 1), SupplyW: 1, Qty: 1}}
			done <- de.Exec(i, db.NewOrderTxn(1, 1, int64(i+1), items))
		}(i)
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// All 16 orders present, contiguous o_ids.
	base := db.Scale.InitialOrdersPerD
	ses := db.SM.Session(0)
	for o := base + 1; o <= base+16; o++ {
		if _, err := ses.Read(db.SM.Begin(), db.Orders, OKey(1, 1, o)); err != nil {
			t.Fatalf("order %d missing: %v", o, err)
		}
	}
}
