package tpcc

import (
	"errors"
	"math/rand"
	"slices"

	"dora/internal/sm"
	"dora/internal/tuple"
	"dora/internal/workload"
	"dora/internal/xct"
)

// ErrInvalidItem is the TPC-C 1% NewOrder rollback (unused item id).
var ErrInvalidItem = errors.New("tpcc: invalid item")

// OrderItem is one NewOrder line request.
type OrderItem struct {
	IID     int64
	SupplyW int64
	Qty     int64
}

// Each transaction is built in one heap object (see package xct on the
// idiom): a per-kind struct embedding the flow, holding its parameters,
// actions, phase backing and scratch, with capture-free bodies reading it
// through env.Params. New-Order has one item read per order line and one
// stock update per supply warehouse, Delivery three actions per district:
// each such body serves one entry of its flow's arrays, so the bodies for
// every entry up to the spec's sizes are built once, below, and only a
// larger flow builds the rest per transaction (entryBody).
const (
	maxOrderLines = 15 // spec: ol_cnt in [5, 15]
	maxDistricts  = 10 // spec: 10 districts per warehouse
)

type body = func(*xct.Env) error

// entryBodies returns mk(0), ..., mk(n-1).
func entryBodies(n int, mk func(int) body) []body {
	t := make([]body, n)
	for i := range t {
		t[i] = mk(i)
	}
	return t
}

// entryBody returns the body for entry i: table[i], or mk(i) past the
// table's end.
func entryBody(table []body, mk func(int) body, i int) body {
	if i < len(table) {
		return table[i]
	}
	return mk(i)
}

var (
	readItemBodies = entryBodies(maxOrderLines, readItem)
	updStockBodies = entryBodies(maxOrderLines, updStock)
	popNOBodies    = entryBodies(maxDistricts, popNewOrder)
	updOBodies     = entryBodies(maxDistricts, updOrder)
	creditCBodies  = entryBodies(maxDistricts, creditCustomer)
)

// newOrderInline is the number of actions a New-Order keeps inline: every
// order of up to maxOrderLines lines from up to three supply warehouses.
const newOrderInline = 3 + maxOrderLines + 3 + 3

// newOrder is one NEW-ORDER transaction.
type newOrder struct {
	xct.Flow
	db      *DB
	w, d, c int64
	items   []OrderItem
	// supply lists the distinct supply warehouses in order of first
	// appearance: one stock action each.
	supply []int64
	// prices is filled by the item reads, one slot each; oID by the
	// district update. The insert phase reads both after the RVP.
	prices      []int64
	oID, amount int64
	acts        []xct.Action
	ptrs        []*xct.Action
	// The inserts run in parallel, so each has its own record.
	orderRec [6]tuple.Value
	noRec    [3]tuple.Value
	olRec    [7]tuple.Value

	itemBuf   [maxOrderLines]OrderItem
	supplyBuf [maxOrderLines]int64
	priceBuf  [maxOrderLines]int64
	actBuf    [newOrderInline]xct.Action
	ptrBuf    [newOrderInline]*xct.Action
}

// NewOrderTxn builds the NEW-ORDER flow: phase 1 reads the warehouse and
// customer, allocates the order id from the district, reads the items
// (one action per item partition) and updates the stocks (one action per
// supply warehouse); phase 2 inserts the order, new-order and order
// lines. The o_id data dependency is what separates the phases.
func (db *DB) NewOrderTxn(w, d, c int64, items []OrderItem) *xct.Flow {
	f := &newOrder{db: db, w: w, d: d, c: c}
	f.items = append(f.itemBuf[:0], items...)
	return f.build()
}

// build wires the flow once f.items is set.
func (f *newOrder) build() *xct.Flow {
	f.Name, f.Params = "NewOrder", f
	n := len(f.items)
	f.supply = f.supplyBuf[:0]
	for _, it := range f.items {
		if !slices.Contains(f.supply, it.SupplyW) {
			f.supply = append(f.supply, it.SupplyW)
		}
	}
	f.prices = f.priceBuf[:]
	if n > len(f.priceBuf) {
		f.prices = make([]int64, n)
	}
	f.prices = f.prices[:n]
	total := 3 + n + len(f.supply) + 3
	f.acts, f.ptrs = f.actBuf[:0], f.ptrBuf[:0]
	if total > len(f.actBuf) {
		f.acts, f.ptrs = make([]xct.Action, 0, total), make([]*xct.Action, 0, total)
	}
	w := f.w
	f.acts = append(f.acts,
		xct.Action{Table: "warehouse", KeyField: "w_id", Key: w, Mode: xct.Read, Label: "read-w", Run: readWarehouse},
		xct.Action{Table: "district", KeyField: "w_id", Key: w, Mode: xct.Write, Label: "alloc-oid", Run: allocOID},
		xct.Action{Table: "customer", KeyField: "w_id", Key: w, Mode: xct.Read, Label: "read-c", Run: readNOCustomer},
	)
	// One read action per item (item is partitioned by i_id). Each action
	// writes only its own prices slot, so the phase's actions stay
	// data-independent; phase 2 reads the slots after the RVP.
	for i, it := range f.items {
		f.acts = append(f.acts, xct.Action{Table: "item", KeyField: "i_id", Key: it.IID, Mode: xct.Read,
			Label: "read-item", Run: entryBody(readItemBodies, readItem, i)})
	}
	// One stock-update action per distinct supply warehouse.
	for k, sw := range f.supply {
		f.acts = append(f.acts, xct.Action{Table: "stock", KeyField: "w_id", Key: sw, Mode: xct.Write,
			Label: "upd-stock", Run: entryBody(updStockBodies, updStock, k)})
	}
	// Phase 2: inserts, one action per table (all routed by w).
	f.acts = append(f.acts,
		xct.Action{Table: "orders", KeyField: "w_id", Key: w, Mode: xct.Write, Label: "ins-order", Run: insOrder},
		xct.Action{Table: "new_order", KeyField: "w_id", Key: w, Mode: xct.Write, Label: "ins-neworder", Run: insNewOrder},
		xct.Action{Table: "order_line", KeyField: "w_id", Key: w, Mode: xct.Write, Label: "ins-ol", Run: insOrderLines},
	)
	for i := range f.acts {
		f.ptrs = append(f.ptrs, &f.acts[i])
	}
	p1 := len(f.ptrs) - 3
	return f.AddPhase(f.ptrs[:p1]...).AddPhase(f.ptrs[p1:]...)
}

func readWarehouse(env *xct.Env) error {
	f := env.Params.(*newOrder)
	_, err := env.Ses.Read(env.Txn, f.db.Warehouse, f.w)
	return err
}

func allocOID(env *xct.Env) error {
	f := env.Params.(*newOrder)
	return env.Ses.MutateWith(env.Txn, f.db.District, DKey(f.w, f.d), takeOID, f)
}

func takeOID(r tuple.Record, arg any) tuple.Record {
	f := arg.(*newOrder)
	f.oID = r[dNextOID].Int
	r[dNextOID] = tuple.I(f.oID + 1)
	return r
}

func readNOCustomer(env *xct.Env) error {
	f := env.Params.(*newOrder)
	_, err := env.Ses.Read(env.Txn, f.db.Customer, CKey(f.w, f.d, f.c))
	return err
}

// readItem returns the body reading order line i's item into prices[i].
func readItem(i int) body {
	return func(env *xct.Env) error {
		f := env.Params.(*newOrder)
		rec, err := env.Ses.Read(env.Txn, f.db.Item, f.items[i].IID)
		if err != nil {
			if errors.Is(err, sm.ErrNotFound) {
				return ErrInvalidItem // spec: 1% rollback
			}
			return err
		}
		f.prices[i] = rec[1].Int
		return nil
	}
}

// updStock returns the body updating the stock of every line supplied by
// the k-th supply warehouse.
func updStock(k int) body {
	return func(env *xct.Env) error {
		f := env.Params.(*newOrder)
		sw := f.supply[k]
		for i := range f.items {
			it := &f.items[i]
			if it.SupplyW != sw {
				continue
			}
			if err := env.Ses.MutateWith(env.Txn, f.db.Stock, SKey(sw, it.IID), takeStock, it); err != nil {
				return err
			}
		}
		return nil
	}
}

func takeStock(r tuple.Record, arg any) tuple.Record {
	qty := arg.(*OrderItem).Qty
	q := r[sQty].Int - qty
	if q < 10 {
		q += 91
	}
	r[sQty] = tuple.I(q)
	r[3] = tuple.I(r[3].Int + qty)
	r[4] = tuple.I(r[4].Int + 1)
	return r
}

func insOrder(env *xct.Env) error {
	f := env.Params.(*newOrder)
	f.orderRec = [6]tuple.Value{
		tuple.I(f.w), tuple.I(f.d), tuple.I(f.oID), tuple.I(f.c),
		tuple.I(0), tuple.I(int64(len(f.items))),
	}
	return env.Ses.Insert(env.Txn, f.db.Orders, f.orderRec[:])
}

func insNewOrder(env *xct.Env) error {
	f := env.Params.(*newOrder)
	f.noRec = [3]tuple.Value{tuple.I(f.w), tuple.I(f.d), tuple.I(f.oID)}
	return env.Ses.Insert(env.Txn, f.db.NewOrder, f.noRec[:])
}

func insOrderLines(env *xct.Env) error {
	f := env.Params.(*newOrder)
	var total int64
	for n, it := range f.items {
		amt := f.prices[n] * it.Qty
		total += amt
		f.olRec = [7]tuple.Value{
			tuple.I(f.w), tuple.I(f.d), tuple.I(f.oID), tuple.I(int64(n + 1)),
			tuple.I(it.IID), tuple.I(it.Qty), tuple.I(amt),
		}
		if err := env.Ses.Insert(env.Txn, f.db.OrderLine, f.olRec[:]); err != nil {
			return err
		}
	}
	f.amount = total
	return nil
}

// payment is one PAYMENT transaction.
type payment struct {
	xct.Flow
	db                      *DB
	w, d, cw, cd, c, amount int64
	acts                    [4]xct.Action
	ptrs                    [4]*xct.Action
	hist                    [5]tuple.Value
}

// PaymentTxn builds the PAYMENT flow: warehouse/district/customer updates
// in parallel (the customer may live at a remote warehouse), then the
// history insert.
func (db *DB) PaymentTxn(w, d, cw, cd, c, amount int64) *xct.Flow {
	f := &payment{db: db, w: w, d: d, cw: cw, cd: cd, c: c, amount: amount}
	f.Name, f.Params = "Payment", f
	f.acts = [4]xct.Action{
		{Table: "warehouse", KeyField: "w_id", Key: w, Mode: xct.Write, Label: "upd-w", Run: updWarehouse},
		{Table: "district", KeyField: "w_id", Key: w, Mode: xct.Write, Label: "upd-d", Run: updDistrict},
		{Table: "customer", KeyField: "w_id", Key: cw, Mode: xct.Write, Label: "upd-c", Run: updCustomer},
		{Table: "history", KeyField: "w_id", Key: w, Mode: xct.Write, Label: "ins-h", Run: insPaymentHistory},
	}
	for i := range f.acts {
		f.ptrs[i] = &f.acts[i]
	}
	return f.AddPhase(f.ptrs[:3]...).AddPhase(f.ptrs[3:]...)
}

func updWarehouse(env *xct.Env) error {
	f := env.Params.(*payment)
	return env.Ses.MutateWith(env.Txn, f.db.Warehouse, f.w, addYTD1, f)
}

func updDistrict(env *xct.Env) error {
	f := env.Params.(*payment)
	return env.Ses.MutateWith(env.Txn, f.db.District, DKey(f.w, f.d), addYTD2, f)
}

func updCustomer(env *xct.Env) error {
	f := env.Params.(*payment)
	return env.Ses.MutateWith(env.Txn, f.db.Customer, CKey(f.cw, f.cd, f.c), payCustomer, f)
}

func insPaymentHistory(env *xct.Env) error {
	f := env.Params.(*payment)
	f.hist = [5]tuple.Value{tuple.I(f.w), tuple.I(f.db.NextHSeq()), tuple.I(f.d), tuple.I(f.c), tuple.I(f.amount)}
	return env.Ses.Insert(env.Txn, f.db.History, f.hist[:])
}

// addYTD1 adds the payment to field 1 (warehouse ytd); addYTD2 to field 2
// (district ytd).
func addYTD1(r tuple.Record, arg any) tuple.Record {
	r[1] = tuple.I(r[1].Int + arg.(*payment).amount)
	return r
}

func addYTD2(r tuple.Record, arg any) tuple.Record {
	r[2] = tuple.I(r[2].Int + arg.(*payment).amount)
	return r
}

func payCustomer(r tuple.Record, arg any) tuple.Record {
	amount := arg.(*payment).amount
	r[cBalance] = tuple.I(r[cBalance].Int - amount)
	r[4] = tuple.I(r[4].Int + amount)
	r[5] = tuple.I(r[5].Int + 1)
	return r
}

// orderStatus is one ORDER-STATUS transaction; lastO is phase 0's verdict
// for phase 1.
type orderStatus struct {
	xct.Flow
	db             *DB
	w, d, c, lastO int64
	acts           [3]xct.Action
	ptrs           [3]*xct.Action
}

// OrderStatusTxn builds ORDER-STATUS: read the customer and find the
// district's latest order, then read it with its lines.
func (db *DB) OrderStatusTxn(w, d, c int64) *xct.Flow {
	f := &orderStatus{db: db, w: w, d: d, c: c}
	f.Name, f.Params = "OrderStatus", f
	f.acts = [3]xct.Action{
		{Table: "customer", KeyField: "w_id", Key: w, Mode: xct.Read, Label: "read-c", Run: readOSCustomer},
		{Table: "district", KeyField: "w_id", Key: w, Mode: xct.Read, Label: "read-d", Run: readLastOrder},
		{Table: "orders", KeyField: "w_id", Key: w, Mode: xct.Read, Label: "read-o", Run: readOrder},
	}
	for i := range f.acts {
		f.ptrs[i] = &f.acts[i]
	}
	return f.AddPhase(f.ptrs[:2]...).AddPhase(f.ptrs[2:]...)
}

func readOSCustomer(env *xct.Env) error {
	f := env.Params.(*orderStatus)
	_, err := env.Ses.Read(env.Txn, f.db.Customer, CKey(f.w, f.d, f.c))
	return err
}

func readLastOrder(env *xct.Env) error {
	f := env.Params.(*orderStatus)
	rec, err := env.Ses.Read(env.Txn, f.db.District, DKey(f.w, f.d))
	if err != nil {
		return err
	}
	f.lastO = rec[dNextOID].Int - 1
	return nil
}

func readOrder(env *xct.Env) error {
	f := env.Params.(*orderStatus)
	if f.lastO < 1 {
		return nil
	}
	if _, err := env.Ses.Read(env.Txn, f.db.Orders, OKey(f.w, f.d, f.lastO)); err != nil {
		if errors.Is(err, sm.ErrNotFound) {
			return nil
		}
		return err
	}
	lo, hi := OLKey(f.w, f.d, f.lastO, 0), OLKey(f.w, f.d, f.lastO, 15)
	// The order-line scan is this flow's one cross-partition access
	// (order_line is served by its own workers): with a continuation
	// engine the action suspends instead of parking the orders worker for
	// the round trip.
	if env.Async != nil {
		resume := env.Async.Suspend()
		env.Ses.ScanRangeAsync(env.Txn, f.db.OrderLine, lo, hi, env.Async.Home(), visitAll, resume)
		return nil
	}
	return env.Ses.ScanRange(env.Txn, f.db.OrderLine, lo, hi, visitAll)
}

func visitAll(int64, tuple.Record) bool { return true }

// deliveryDistrict is one district's share of a DELIVERY: the order phase
// 0 pops (-1 when none is left), its customer and its total, which the
// later phases read after their RVPs.
type deliveryDistrict struct {
	f                *delivery
	oID, cID, amount int64
}

// delivery is one DELIVERY transaction.
type delivery struct {
	xct.Flow
	db         *DB
	w, carrier int64
	dists      []deliveryDistrict // district d is dists[d-1]
	acts       []xct.Action
	ptrs       []*xct.Action
	phases     [3]xct.Phase

	distBuf [maxDistricts]deliveryDistrict
	actBuf  [3 * maxDistricts]xct.Action
	ptrBuf  [3 * maxDistricts]*xct.Action
}

// DeliveryTxn builds DELIVERY for one warehouse: per district, pop the
// oldest new-order, mark the order delivered, and credit the customer.
func (db *DB) DeliveryTxn(w, carrier int64) *xct.Flow {
	nd := int(db.Scale.DistrictsPerW)
	f := &delivery{db: db, w: w, carrier: carrier}
	f.Name, f.Params, f.Phases = "Delivery", f, f.phases[:0]
	f.dists, f.acts, f.ptrs = f.distBuf[:0], f.actBuf[:0], f.ptrBuf[:0]
	if nd > maxDistricts {
		f.dists, f.acts, f.ptrs = make([]deliveryDistrict, 0, nd), make([]xct.Action, 0, 3*nd), make([]*xct.Action, 0, 3*nd)
	}
	f.dists = f.dists[:nd]
	for i := range f.dists {
		f.dists[i].f = f
	}
	for i := 0; i < nd; i++ {
		f.acts = append(f.acts, xct.Action{Table: "new_order", KeyField: "w_id", Key: w, Mode: xct.Write,
			Label: "pop-no", Run: entryBody(popNOBodies, popNewOrder, i)})
	}
	for i := 0; i < nd; i++ {
		f.acts = append(f.acts, xct.Action{Table: "orders", KeyField: "w_id", Key: w, Mode: xct.Write,
			Label: "upd-o", Run: entryBody(updOBodies, updOrder, i)})
	}
	for i := 0; i < nd; i++ {
		f.acts = append(f.acts, xct.Action{Table: "customer", KeyField: "w_id", Key: w, Mode: xct.Write,
			Label: "credit-c", Run: entryBody(creditCBodies, creditCustomer, i)})
	}
	for i := range f.acts {
		f.ptrs = append(f.ptrs, &f.acts[i])
	}
	return f.AddPhase(f.ptrs[:nd]...).AddPhase(f.ptrs[nd : 2*nd]...).AddPhase(f.ptrs[2*nd:]...)
}

// popNewOrder returns the body popping district i+1's oldest new-order.
func popNewOrder(i int) body {
	return func(env *xct.Env) error {
		f := env.Params.(*delivery)
		dd, d := &f.dists[i], int64(i+1)
		dd.oID = -1
		err := env.Ses.ScanRange(env.Txn, f.db.NewOrder,
			OKey(f.w, d, 0), OKey(f.w, d, 1<<31),
			func(k int64, r tuple.Record) bool {
				dd.oID = r[2].Int
				return false
			})
		if err != nil {
			return err
		}
		if dd.oID < 0 {
			return nil // district fully delivered: skip
		}
		return env.Ses.Delete(env.Txn, f.db.NewOrder, OKey(f.w, d, dd.oID))
	}
}

// updOrder returns the body marking district i+1's popped order delivered
// and totalling its lines.
func updOrder(i int) body {
	return func(env *xct.Env) error {
		f := env.Params.(*delivery)
		dd, d := &f.dists[i], int64(i+1)
		if dd.oID < 0 {
			return nil
		}
		if err := env.Ses.MutateWith(env.Txn, f.db.Orders, OKey(f.w, d, dd.oID), markDelivered, dd); err != nil {
			return err
		}
		dd.amount = 0
		lo, hi := OLKey(f.w, d, dd.oID, 0), OLKey(f.w, d, dd.oID, 15)
		sum := func(k int64, r tuple.Record) bool {
			dd.amount += r[olAmount].Int
			return true
		}
		// Cross-partition order-line scan: suspend on it under a
		// continuation engine (see OrderStatus); the total lands in
		// dd.amount before the resume reports, so the next phase reads it
		// through the RVP ordering.
		if env.Async != nil {
			resume := env.Async.Suspend()
			env.Ses.ScanRangeAsync(env.Txn, f.db.OrderLine, lo, hi, env.Async.Home(), sum, resume)
			return nil
		}
		return env.Ses.ScanRange(env.Txn, f.db.OrderLine, lo, hi, sum)
	}
}

func markDelivered(r tuple.Record, arg any) tuple.Record {
	dd := arg.(*deliveryDistrict)
	dd.cID = r[oCID].Int
	r[oCarrier] = tuple.I(dd.f.carrier)
	return r
}

// creditCustomer returns the body crediting district i+1's customer with
// the delivered order's total.
func creditCustomer(i int) body {
	return func(env *xct.Env) error {
		f := env.Params.(*delivery)
		dd, d := &f.dists[i], int64(i+1)
		if dd.oID < 0 {
			return nil
		}
		return env.Ses.MutateWith(env.Txn, f.db.Customer, CKey(f.w, d, dd.cID), credit, dd)
	}
}

func credit(r tuple.Record, arg any) tuple.Record {
	r[cBalance] = tuple.I(r[cBalance].Int + arg.(*deliveryDistrict).amount)
	return r
}

// stockLevel is one STOCK-LEVEL transaction: nextO is phase 0's result,
// items phase 1's.
type stockLevel struct {
	xct.Flow
	db                     *DB
	w, d, threshold, nextO int64
	items                  []int64
	acts                   [3]xct.Action
	ptrs                   [3]*xct.Action
	phases                 [3]xct.Phase
}

// StockLevelTxn builds STOCK-LEVEL: examine the district's last 20
// orders' lines and count stocks below the threshold.
func (db *DB) StockLevelTxn(w, d, threshold int64) *xct.Flow {
	f := &stockLevel{db: db, w: w, d: d, threshold: threshold}
	f.Name, f.Params, f.Phases = "StockLevel", f, f.phases[:0]
	f.acts = [3]xct.Action{
		{Table: "district", KeyField: "w_id", Key: w, Mode: xct.Read, Label: "read-d", Run: readNextOID},
		{Table: "order_line", KeyField: "w_id", Key: w, Mode: xct.Read, Label: "scan-ol", Run: scanRecentLines},
		{Table: "stock", KeyField: "w_id", Key: w, Mode: xct.Read, Label: "count-stock", Run: countLowStock},
	}
	for i := range f.acts {
		f.ptrs[i] = &f.acts[i]
	}
	return f.AddPhase(f.ptrs[:1]...).AddPhase(f.ptrs[1:2]...).AddPhase(f.ptrs[2:]...)
}

func readNextOID(env *xct.Env) error {
	f := env.Params.(*stockLevel)
	rec, err := env.Ses.Read(env.Txn, f.db.District, DKey(f.w, f.d))
	if err != nil {
		return err
	}
	f.nextO = rec[dNextOID].Int
	return nil
}

func scanRecentLines(env *xct.Env) error {
	f := env.Params.(*stockLevel)
	lo := f.nextO - 20
	if lo < 1 {
		lo = 1
	}
	seen := map[int64]bool{}
	err := env.Ses.ScanRange(env.Txn, f.db.OrderLine,
		OLKey(f.w, f.d, lo, 0), OLKey(f.w, f.d, f.nextO, 0),
		func(k int64, r tuple.Record) bool {
			seen[r[olIID].Int] = true
			return true
		})
	if err != nil {
		return err
	}
	f.items = f.items[:0]
	for iid := range seen {
		f.items = append(f.items, iid)
	}
	return nil
}

func countLowStock(env *xct.Env) error {
	f := env.Params.(*stockLevel)
	low := 0
	for _, iid := range f.items {
		rec, err := env.Ses.Read(env.Txn, f.db.Stock, SKey(f.w, iid))
		if err != nil {
			return err
		}
		if rec[sQty].Int < f.threshold {
			low++
		}
	}
	return nil
}

// MixOptions parameterize NewMix.
type MixOptions struct {
	// WGen draws the home warehouse (default uniform).
	WGen workload.KeyGen
	// RemotePct is the probability a Payment customer or NewOrder supply
	// warehouse is remote (default 0.15 and 0.01 resp. when zero and
	// Warehouses > 1).
	RemotePct float64
	// InvalidItemPct is the NewOrder rollback rate (default 0.01).
	InvalidItemPct float64
}

// NewMix returns the standard TPC-C mix (45/43/4/4/4).
func (db *DB) NewMix(opt MixOptions) workload.Mix {
	sc := db.Scale
	wgen := opt.WGen
	if wgen == nil {
		wgen = workload.Uniform{Lo: 1, Hi: sc.Warehouses}
	}
	remote := opt.RemotePct
	if remote == 0 && sc.Warehouses > 1 {
		remote = 0.15
	}
	invalid := opt.InvalidItemPct
	if invalid == 0 {
		invalid = 0.01
	}
	otherW := func(rng *rand.Rand, w int64) int64 {
		if sc.Warehouses == 1 {
			return w
		}
		for {
			o := 1 + rng.Int63n(sc.Warehouses)
			if o != w {
				return o
			}
		}
	}
	return workload.Mix{
		{Name: "NewOrder", Weight: 45, Build: func(rng *rand.Rand) *xct.Flow {
			w := wgen.Next(rng)
			d := 1 + rng.Int63n(sc.DistrictsPerW)
			c := 1 + rng.Int63n(sc.CustomersPerD)
			// The lines are drawn straight into the flow's inline array.
			f := &newOrder{db: db, w: w, d: d, c: c}
			n := 5 + rng.Intn(11) // 5..maxOrderLines lines
			f.items = f.itemBuf[:n]
			for i := range f.items {
				iid := 1 + rng.Int63n(sc.Items)
				if i == n-1 && rng.Float64() < invalid {
					iid = sc.Items + 1000 // unused item: 1% rollback
				}
				sw := w
				if rng.Float64() < 0.01 {
					sw = otherW(rng, w)
				}
				f.items[i] = OrderItem{IID: iid, SupplyW: sw, Qty: 1 + rng.Int63n(10)}
			}
			return f.build()
		}},
		{Name: "Payment", Weight: 43, Build: func(rng *rand.Rand) *xct.Flow {
			w := wgen.Next(rng)
			d := 1 + rng.Int63n(sc.DistrictsPerW)
			cw, cd := w, d
			if rng.Float64() < remote {
				cw = otherW(rng, w)
				cd = 1 + rng.Int63n(sc.DistrictsPerW)
			}
			c := 1 + rng.Int63n(sc.CustomersPerD)
			return db.PaymentTxn(w, d, cw, cd, c, 1+rng.Int63n(5000))
		}},
		{Name: "OrderStatus", Weight: 4, Build: func(rng *rand.Rand) *xct.Flow {
			w := wgen.Next(rng)
			return db.OrderStatusTxn(w, 1+rng.Int63n(sc.DistrictsPerW), 1+rng.Int63n(sc.CustomersPerD))
		}},
		{Name: "Delivery", Weight: 4, Build: func(rng *rand.Rand) *xct.Flow {
			return db.DeliveryTxn(wgen.Next(rng), 1+rng.Int63n(10))
		}},
		{Name: "StockLevel", Weight: 4, Build: func(rng *rand.Rand) *xct.Flow {
			w := wgen.Next(rng)
			return db.StockLevelTxn(w, 1+rng.Int63n(sc.DistrictsPerW), 10+rng.Int63n(11))
		}},
	}
}
