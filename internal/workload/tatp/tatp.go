// Package tatp implements the TATP (Telecom Application Transaction
// Processing) benchmark the demo runs on both engines: the four-table
// telecom schema and the standard seven-transaction mix, expressed as
// transaction flow graphs both engines execute.
//
// Key packing: composite primary keys are bit-packed into int64s —
// access_info (s_id, ai_type) → s_id*4 + ai_type-1; special_facility
// (s_id, sf_type) → s_id*4 + sf_type-1; call_forwarding (s_id, sf_type,
// start_time) → (s_id*4 + sf_type-1)*4 + start_time/8. Every table's
// partitioning field is s_id, so all accesses keyed by s_id are
// partition-aligned; the by-sub_nbr transactions (UpdateLocation,
// Insert/DeleteCallForwarding) resolve sub_nbr → s_id through the
// subscriber secondary index, exactly the non-aligned accesses the
// alignment advisor (experiment E7) watches.
package tatp

import (
	"errors"
	"fmt"
	"math/rand"

	"dora/internal/catalog"
	"dora/internal/sm"
	"dora/internal/tuple"
	"dora/internal/workload"
	"dora/internal/xct"
)

// Subscriber field positions.
const (
	subSID = iota
	subNbr
	subBit1
	subMSCLoc
	subVLRLoc
)

// DB holds the loaded TATP tables.
type DB struct {
	SM          *sm.SM
	N           int64 // subscribers
	Subscriber  *catalog.Table
	AccessInfo  *catalog.Table
	SpecialFac  *catalog.Table
	CallForward *catalog.Table
}

// SubNbr maps s_id to its sub_nbr (a fixed bijection over [1, N]).
func (db *DB) SubNbr(sid int64) int64 { return db.N + 1 - sid }

// SIDFromNbr inverts SubNbr.
func (db *DB) SIDFromNbr(nbr int64) int64 { return db.N + 1 - nbr }

// AIKey packs the access_info primary key.
func AIKey(sid int64, aiType int64) int64 { return sid*4 + aiType - 1 }

// SFKey packs the special_facility primary key.
func SFKey(sid int64, sfType int64) int64 { return sid*4 + sfType - 1 }

// CFKey packs the call_forwarding primary key.
func CFKey(sid, sfType, startTime int64) int64 {
	return (sid*4+sfType-1)*4 + startTime/8
}

// Domains returns the DORA routing domains for all TATP tables.
func (db *DB) Domains() map[string][2]int64 {
	return map[string][2]int64{
		"subscriber":       {1, db.N},
		"access_info":      {1, db.N},
		"special_facility": {1, db.N},
		"call_forwarding":  {1, db.N},
	}
}

// Schema creates the TATP tables without populating them — the DDL a
// read replica runs before replaying the primary's log stream (schema is
// code, not logged, and must be declared in the same order as on the
// primary so table ids line up).
func Schema(s *sm.SM, n int64) (*DB, error) {
	db := &DB{SM: s, N: n}
	var err error
	db.Subscriber, err = s.CreateTable(sm.TableSpec{
		Name: "subscriber",
		Fields: []catalog.Field{
			{Name: "s_id", Type: tuple.TInt},
			{Name: "sub_nbr", Type: tuple.TInt},
			{Name: "bit_1", Type: tuple.TInt},
			{Name: "msc_location", Type: tuple.TInt},
			{Name: "vlr_location", Type: tuple.TInt},
		},
		KeyFields: []string{"s_id"},
		Key:       func(r tuple.Record) int64 { return r[subSID].Int },
		Secondaries: []sm.IndexSpec{{
			Name:   "sub_by_nbr",
			Fields: []string{"sub_nbr"},
			Key:    func(r tuple.Record) int64 { return r[subNbr].Int },
			// sub_nbr = N+1-s_id is an order-reversing bijection, so an
			// s_id interval maps to one contiguous sub_nbr interval and
			// the secondary partitions along with the primary: the worker
			// owning s_id in [lo, hi] owns sub_nbr in [N+1-hi, N+1-lo].
			RouteRange: func(lo, hi int64) (int64, int64) {
				return n + 1 - hi, n + 1 - lo
			},
		}},
		// The same bijection declared as field maps in both directions,
		// so a Repartition onto sub_nbr keeps BOTH indexes claimed: the
		// primary's s_id keys route through sub_nbr → s_id, and the
		// secondary composes sub_nbr → s_id → sub_nbr keys (the
		// round trip is the identity on its own key space).
		FieldMaps: []catalog.FieldMap{
			{From: "sub_nbr", To: "s_id",
				Map: func(lo, hi int64) (int64, int64) { return n + 1 - hi, n + 1 - lo }},
			{From: "s_id", To: "sub_nbr",
				Map: func(lo, hi int64) (int64, int64) { return n + 1 - hi, n + 1 - lo }},
		},
	})
	if err != nil {
		return nil, err
	}
	db.AccessInfo, err = s.CreateTable(sm.TableSpec{
		Name: "access_info",
		Fields: []catalog.Field{
			{Name: "s_id", Type: tuple.TInt},
			{Name: "ai_type", Type: tuple.TInt},
			{Name: "data1", Type: tuple.TInt},
			{Name: "data2", Type: tuple.TInt},
			{Name: "data3", Type: tuple.TString},
			{Name: "data4", Type: tuple.TString},
		},
		KeyFields:      []string{"s_id", "ai_type"},
		Key:            func(r tuple.Record) int64 { return AIKey(r[0].Int, r[1].Int) },
		PartitionField: "s_id",
		RouteRange: func(lo, hi int64) (int64, int64) {
			return AIKey(lo, 1), AIKey(hi, 4)
		},
	})
	if err != nil {
		return nil, err
	}
	db.SpecialFac, err = s.CreateTable(sm.TableSpec{
		Name: "special_facility",
		Fields: []catalog.Field{
			{Name: "s_id", Type: tuple.TInt},
			{Name: "sf_type", Type: tuple.TInt},
			{Name: "is_active", Type: tuple.TInt},
			{Name: "error_cntrl", Type: tuple.TInt},
			{Name: "data_a", Type: tuple.TInt},
			{Name: "data_b", Type: tuple.TString},
		},
		KeyFields:      []string{"s_id", "sf_type"},
		Key:            func(r tuple.Record) int64 { return SFKey(r[0].Int, r[1].Int) },
		PartitionField: "s_id",
		RouteRange: func(lo, hi int64) (int64, int64) {
			return SFKey(lo, 1), SFKey(hi, 4)
		},
	})
	if err != nil {
		return nil, err
	}
	db.CallForward, err = s.CreateTable(sm.TableSpec{
		Name: "call_forwarding",
		Fields: []catalog.Field{
			{Name: "s_id", Type: tuple.TInt},
			{Name: "sf_type", Type: tuple.TInt},
			{Name: "start_time", Type: tuple.TInt},
			{Name: "end_time", Type: tuple.TInt},
			{Name: "numberx", Type: tuple.TInt},
		},
		KeyFields:      []string{"s_id", "sf_type", "start_time"},
		Key:            func(r tuple.Record) int64 { return CFKey(r[0].Int, r[1].Int, r[2].Int) },
		PartitionField: "s_id",
		RouteRange: func(lo, hi int64) (int64, int64) {
			return CFKey(lo, 1, 0), CFKey(hi, 4, 23)
		},
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}

// Load creates and populates the TATP schema with n subscribers.
func Load(s *sm.SM, n int64) (*DB, error) {
	db, err := Schema(s, n)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(4242))
	ses := s.Session(0)
	const batch = 1000
	txn := s.Begin()
	inBatch := 0
	flush := func() error {
		if err := s.Commit(txn); err != nil {
			return err
		}
		txn = s.Begin()
		inBatch = 0
		return nil
	}
	for sid := int64(1); sid <= n; sid++ {
		err := ses.Insert(txn, db.Subscriber, tuple.Record{
			tuple.I(sid), tuple.I(db.SubNbr(sid)),
			tuple.I(rng.Int63n(2)), tuple.I(rng.Int63n(1 << 16)), tuple.I(rng.Int63n(1 << 16)),
		})
		if err != nil {
			return nil, err
		}
		// 1..4 access_info rows.
		nAI := 1 + rng.Intn(4)
		for ai := int64(1); ai <= int64(nAI); ai++ {
			err := ses.Insert(txn, db.AccessInfo, tuple.Record{
				tuple.I(sid), tuple.I(ai),
				tuple.I(rng.Int63n(256)), tuple.I(rng.Int63n(256)),
				tuple.S("AAA"), tuple.S("BBBBB"),
			})
			if err != nil {
				return nil, err
			}
		}
		// 1..4 special_facility rows; each active with P=0.85.
		nSF := 1 + rng.Intn(4)
		for sf := int64(1); sf <= int64(nSF); sf++ {
			active := int64(0)
			if rng.Float64() < 0.85 {
				active = 1
			}
			err := ses.Insert(txn, db.SpecialFac, tuple.Record{
				tuple.I(sid), tuple.I(sf), tuple.I(active),
				tuple.I(rng.Int63n(256)), tuple.I(rng.Int63n(256)), tuple.S("CCCCC"),
			})
			if err != nil {
				return nil, err
			}
			// 0..3 call_forwarding rows at start times 0, 8, 16.
			for _, st := range []int64{0, 8, 16} {
				if rng.Float64() < 0.25 {
					err := ses.Insert(txn, db.CallForward, tuple.Record{
						tuple.I(sid), tuple.I(sf), tuple.I(st),
						tuple.I(st + 1 + rng.Int63n(8)), tuple.I(rng.Int63n(1 << 30)),
					})
					if err != nil {
						return nil, err
					}
				}
			}
		}
		inBatch++
		if inBatch >= batch {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := s.Commit(txn); err != nil {
		return nil, err
	}
	return db, nil
}

// sub heads every TATP transaction's parameter block (see package xct
// on the idiom): the flow, the database and the subscriber key the
// flow's first action carries — s_id or sub_nbr, per its KeyField. Each
// transaction kind embeds it in a struct of its own that also holds the
// kind's parameters, actions and scratch, so building a flow is one
// allocation.
type sub struct {
	xct.Flow
	db  *DB
	key int64
}

func (s *sub) head() *sub { return s }

// subKeyed is every parameter block, seen through its embedded sub: what
// the resolvers read.
type subKeyed interface{ head() *sub }

// subField projects field out of a subscriber row a resolver read.
func subField(db *DB, rec tuple.Record, err error, field string) (int64, error) {
	if err != nil {
		return 0, err
	}
	i := db.Subscriber.FieldIndex(field)
	if i < 0 {
		return 0, fmt.Errorf("tatp: subscriber has no field %q", field)
	}
	return rec[i].Int, nil
}

// resolveByNbr is the Resolver of actions keyed by sub_nbr: it probes the
// sub_by_nbr secondary index.
func resolveByNbr(env *xct.Env, field string) (int64, error) {
	h := env.Params.(subKeyed).head()
	rec, err := env.Ses.ReadByIndex(env.Txn, h.db.Subscriber, "sub_by_nbr", h.key)
	return subField(h.db, rec, err, field)
}

// resolveBySIDAsync is the AsyncResolver of subscriber actions keyed by
// s_id: it reads the row by primary key and projects the requested
// field. Only DORA, once subscriber is repartitioned onto sub_nbr, calls
// it (the conventional engine locks s_id itself), so these actions carry
// no sync Resolve. The read ships asynchronously and the dispatcher
// suspends instead of blocking on it.
func resolveBySIDAsync(env *xct.Env, field string, k func(int64, error)) {
	h := env.Params.(subKeyed).head()
	env.Ses.ReadAsync(env.Txn, h.db.Subscriber, h.key, nil, func(rec tuple.Record, err error) {
		k(subField(h.db, rec, err, field))
	})
}

// resolveByNbrAsync is resolveByNbr in continuation-passing form.
func resolveByNbrAsync(env *xct.Env, field string, k func(int64, error)) {
	h := env.Params.(subKeyed).head()
	env.Ses.ReadByIndexAsync(env.Txn, h.db.Subscriber, "sub_by_nbr", h.key, nil, func(rec tuple.Record, err error) {
		k(subField(h.db, rec, err, field))
	})
}

type getSubscriberData struct {
	sub
	act [1]xct.Action
	ptr [1]*xct.Action
}

// GetSubscriberData returns the flow for TATP GET_SUBSCRIBER_DATA.
func (db *DB) GetSubscriberData(sid int64) *xct.Flow {
	f := &getSubscriberData{sub: sub{db: db, key: sid}}
	f.Name, f.Params = "GetSubscriberData", f
	f.act[0] = xct.Action{
		Table: "subscriber", KeyField: "s_id", Key: sid, Mode: xct.Read,
		ResolveAsync: resolveBySIDAsync, Label: "read-sub", Run: readSub,
	}
	f.ptr[0] = &f.act[0]
	return f.AddPhase(f.ptr[:]...)
}

func readSub(env *xct.Env) error {
	f := env.Params.(*getSubscriberData)
	_, err := env.Ses.Read(env.Txn, f.db.Subscriber, f.key)
	return err
}

type getNewDestination struct {
	sub
	sfType, startTime, endTime int64
	// active is phase 0's verdict for phase 1.
	active bool
	acts   [2]xct.Action
	ptrs   [2]*xct.Action
}

// GetNewDestination returns the flow for TATP GET_NEW_DESTINATION:
// phase 1 checks the special facility is active, phase 2 scans matching
// call forwardings.
func (db *DB) GetNewDestination(sid, sfType, startTime, endTime int64) *xct.Flow {
	f := &getNewDestination{sub: sub{db: db, key: sid}, sfType: sfType, startTime: startTime, endTime: endTime}
	f.Name, f.Params = "GetNewDestination", f
	f.acts = [2]xct.Action{
		{Table: "special_facility", KeyField: "s_id", Key: sid, Mode: xct.Read, Label: "read-sf", Run: readSF},
		{Table: "call_forwarding", KeyField: "s_id", Key: sid, Mode: xct.Read, Label: "scan-cf", Run: scanCF},
	}
	f.ptrs = [2]*xct.Action{&f.acts[0], &f.acts[1]}
	return f.AddPhase(f.ptrs[:1]...).AddPhase(f.ptrs[1:]...)
}

func readSF(env *xct.Env) error {
	f := env.Params.(*getNewDestination)
	rec, err := env.Ses.Read(env.Txn, f.db.SpecialFac, SFKey(f.key, f.sfType))
	f.active = err == nil && rec[2].Int == 1
	if errors.Is(err, sm.ErrNotFound) {
		return nil // no such facility: valid empty result
	}
	return err
}

func scanCF(env *xct.Env) error {
	f := env.Params.(*getNewDestination)
	if !f.active {
		return nil
	}
	lo := CFKey(f.key, f.sfType, 0)
	hi := CFKey(f.key, f.sfType, 16)
	return env.Ses.ScanRange(env.Txn, f.db.CallForward, lo, hi,
		func(k int64, rec tuple.Record) bool {
			// start_time <= startTime && endTime < end_time
			return !(rec[2].Int <= f.startTime && f.endTime < rec[3].Int)
		})
}

type getAccessData struct {
	sub
	aiType int64
	act    [1]xct.Action
	ptr    [1]*xct.Action
}

// GetAccessData returns the flow for TATP GET_ACCESS_DATA.
func (db *DB) GetAccessData(sid, aiType int64) *xct.Flow {
	f := &getAccessData{sub: sub{db: db, key: sid}, aiType: aiType}
	f.Name, f.Params = "GetAccessData", f
	f.act[0] = xct.Action{
		Table: "access_info", KeyField: "s_id", Key: sid, Mode: xct.Read,
		Label: "read-ai", Run: readAI,
	}
	f.ptr[0] = &f.act[0]
	return f.AddPhase(f.ptr[:]...)
}

func readAI(env *xct.Env) error {
	f := env.Params.(*getAccessData)
	_, err := env.Ses.Read(env.Txn, f.db.AccessInfo, AIKey(f.key, f.aiType))
	if errors.Is(err, sm.ErrNotFound) {
		return nil // ~37% of probes are misses by design
	}
	return err
}

type batchScanSubscribers struct {
	sub
	hi  int64
	act [1]xct.Action
	ptr [1]*xct.Action
}

// BatchScanSubscribers returns a flow reading every subscriber with
// lo <= s_id <= hi under ONE ranged S lock instead of a lock per id:
// the hierarchical local lock table grants it as a handful of
// granule-level locks (or a single partition-level lock for wide
// spans) instead of one lock per id (TestBatchScanLockAcquisitions
// counts them). The
// action routes to the partition owning lo; the lock protects the
// interval's intersection with that partition's ranges, so callers
// wanting full coverage keep [lo, hi] inside one partition (the scan
// itself ships foreign segments to their owners like any range scan).
func (db *DB) BatchScanSubscribers(lo, hi int64) *xct.Flow {
	f := &batchScanSubscribers{sub: sub{db: db, key: lo}, hi: hi}
	f.Name, f.Params = "BatchScanSubscribers", f
	f.act[0] = xct.Action{
		Table: "subscriber", KeyField: "s_id", Key: lo, Mode: xct.Read,
		Ranged: true, RangeLo: lo, RangeHi: hi, Label: "scan-subs", Run: scanSubs,
	}
	f.ptr[0] = &f.act[0]
	return f.AddPhase(f.ptr[:]...)
}

func scanSubs(env *xct.Env) error {
	f := env.Params.(*batchScanSubscribers)
	return env.Ses.ScanRange(env.Txn, f.db.Subscriber, f.key, f.hi, visitAll)
}

func visitAll(int64, tuple.Record) bool { return true }

type updateSubscriberData struct {
	sub
	sfType, bit, dataA int64
	acts               [2]xct.Action
	ptrs               [2]*xct.Action
}

// UpdateSubscriberData returns the flow for TATP UPDATE_SUBSCRIBER_DATA:
// two parallel single-site writes.
func (db *DB) UpdateSubscriberData(sid, sfType, bit, dataA int64) *xct.Flow {
	f := &updateSubscriberData{sub: sub{db: db, key: sid}, sfType: sfType, bit: bit, dataA: dataA}
	f.Name, f.Params = "UpdateSubscriberData", f
	f.acts = [2]xct.Action{
		{Table: "subscriber", KeyField: "s_id", Key: sid, Mode: xct.Write,
			ResolveAsync: resolveBySIDAsync, Label: "upd-sub", Run: updSub},
		{Table: "special_facility", KeyField: "s_id", Key: sid, Mode: xct.Write,
			Label: "upd-sf", Run: updSF},
	}
	f.ptrs = [2]*xct.Action{&f.acts[0], &f.acts[1]}
	return f.AddPhase(f.ptrs[:]...)
}

func updSub(env *xct.Env) error {
	f := env.Params.(*updateSubscriberData)
	return env.Ses.MutateWith(env.Txn, f.db.Subscriber, f.key, setBit1, f)
}

func setBit1(r tuple.Record, arg any) tuple.Record {
	r[subBit1] = tuple.I(arg.(*updateSubscriberData).bit)
	return r
}

func updSF(env *xct.Env) error {
	f := env.Params.(*updateSubscriberData)
	err := env.Ses.MutateWith(env.Txn, f.db.SpecialFac, SFKey(f.key, f.sfType), setDataA, f)
	if errors.Is(err, sm.ErrNotFound) {
		return nil
	}
	return err
}

func setDataA(r tuple.Record, arg any) tuple.Record {
	r[4] = tuple.I(arg.(*updateSubscriberData).dataA)
	return r
}

type updateLocation struct {
	sub
	vlr int64
	act [1]xct.Action
	ptr [1]*xct.Action
}

// UpdateLocation returns the flow for TATP UPDATE_LOCATION — keyed by
// sub_nbr, the canonical non-partition-aligned access.
func (db *DB) UpdateLocation(nbr, vlr int64) *xct.Flow {
	f := &updateLocation{sub: sub{db: db, key: nbr}, vlr: vlr}
	f.Name, f.Params = "UpdateLocation", f
	f.act[0] = xct.Action{
		Table: "subscriber", KeyField: "sub_nbr", Key: nbr, Mode: xct.Write,
		Resolve: resolveByNbr, ResolveAsync: resolveByNbrAsync, Label: "upd-loc", Run: updLoc,
	}
	f.ptr[0] = &f.act[0]
	return f.AddPhase(f.ptr[:]...)
}

func updLoc(env *xct.Env) error {
	f := env.Params.(*updateLocation)
	rec, err := env.Ses.ReadByIndex(env.Txn, f.db.Subscriber, "sub_by_nbr", f.key)
	if err != nil {
		return err
	}
	return env.Ses.MutateWith(env.Txn, f.db.Subscriber, rec[subSID].Int, setVLR, f)
}

func setVLR(r tuple.Record, arg any) tuple.Record {
	r[subVLRLoc] = tuple.I(arg.(*updateLocation).vlr)
	return r
}

// callForwarding is the parameter block of both call-forwarding
// transactions: phase 0 resolves the subscriber by sub_nbr and fills in
// sid and phase 1's routing key (a late key), phase 1 inserts or deletes
// the forwarding.
type callForwarding struct {
	sub
	sfType, startTime, endTime, numberx int64
	sid                                 int64
	rec                                 [5]tuple.Value // the inserted row
	acts                                [2]xct.Action
	ptrs                                [2]*xct.Action
}

// build wires the two phases: a find-sub read by sub_nbr, then body on
// call_forwarding under the late s_id key.
func (f *callForwarding) build(name, label string, body func(*xct.Env) error) *xct.Flow {
	f.Name, f.Params = name, f
	f.acts = [2]xct.Action{
		{Table: "subscriber", KeyField: "sub_nbr", Key: f.key, Mode: xct.Read,
			Resolve: resolveByNbr, ResolveAsync: resolveByNbrAsync, Label: "find-sub", Run: findSub},
		{Table: "call_forwarding", KeyField: "s_id", Mode: xct.Write,
			Label: label, LateKey: true, Run: body},
	}
	f.ptrs = [2]*xct.Action{&f.acts[0], &f.acts[1]}
	return f.AddPhase(f.ptrs[:1]...).AddPhase(f.ptrs[1:]...)
}

// InsertCallForwarding returns the flow for TATP INSERT_CALL_FORWARDING.
// Phase 1 resolves the subscriber and checks the facility; phase 2
// inserts. A duplicate forwarding aborts the transaction (per spec).
func (db *DB) InsertCallForwarding(nbr, sfType, startTime, endTime, numberx int64) *xct.Flow {
	f := &callForwarding{sub: sub{db: db, key: nbr}, sfType: sfType, startTime: startTime, endTime: endTime, numberx: numberx}
	return f.build("InsertCallForwarding", "ins-cf", insCF)
}

// DeleteCallForwarding returns the flow for TATP DELETE_CALL_FORWARDING.
// Deleting a non-existent forwarding aborts (per spec).
func (db *DB) DeleteCallForwarding(nbr, sfType, startTime int64) *xct.Flow {
	f := &callForwarding{sub: sub{db: db, key: nbr}, sfType: sfType, startTime: startTime}
	return f.build("DeleteCallForwarding", "del-cf", delCF)
}

// findSub resolves sub_nbr to s_id: phase 1's routing key is produced
// here, before the RVP dispatches it.
func findSub(env *xct.Env) error {
	f := env.Params.(*callForwarding)
	rec, err := env.Ses.ReadByIndex(env.Txn, f.db.Subscriber, "sub_by_nbr", f.key)
	if err != nil {
		return err
	}
	f.sid = rec[subSID].Int
	f.acts[1].Key = f.sid
	return nil
}

func insCF(env *xct.Env) error {
	f := env.Params.(*callForwarding)
	f.rec = [5]tuple.Value{
		tuple.I(f.sid), tuple.I(f.sfType), tuple.I(f.startTime),
		tuple.I(f.endTime), tuple.I(f.numberx),
	}
	return env.Ses.Insert(env.Txn, f.db.CallForward, f.rec[:])
}

func delCF(env *xct.Env) error {
	f := env.Params.(*callForwarding)
	return env.Ses.Delete(env.Txn, f.db.CallForward, CFKey(f.sid, f.sfType, f.startTime))
}

// MixOptions parameterize NewMix.
type MixOptions struct {
	// SIDGen draws subscriber ids (default uniform over [1, N]).
	SIDGen workload.KeyGen
}

// NewMix returns the standard TATP mix (35/10/35/2/14/2/2).
func (db *DB) NewMix(opt MixOptions) workload.Mix {
	gen := opt.SIDGen
	if gen == nil {
		gen = workload.Uniform{Lo: 1, Hi: db.N}
	}
	sid := func(rng *rand.Rand) int64 { return gen.Next(rng) }
	return workload.Mix{
		{Name: "GetSubscriberData", Weight: 35, Build: func(rng *rand.Rand) *xct.Flow {
			return db.GetSubscriberData(sid(rng))
		}},
		{Name: "GetNewDestination", Weight: 10, Build: func(rng *rand.Rand) *xct.Flow {
			return db.GetNewDestination(sid(rng), 1+rng.Int63n(4), 8*rng.Int63n(3), 1+rng.Int63n(24))
		}},
		{Name: "GetAccessData", Weight: 35, Build: func(rng *rand.Rand) *xct.Flow {
			return db.GetAccessData(sid(rng), 1+rng.Int63n(4))
		}},
		{Name: "UpdateSubscriberData", Weight: 2, Build: func(rng *rand.Rand) *xct.Flow {
			return db.UpdateSubscriberData(sid(rng), 1+rng.Int63n(4), rng.Int63n(2), rng.Int63n(256))
		}},
		{Name: "UpdateLocation", Weight: 14, Build: func(rng *rand.Rand) *xct.Flow {
			return db.UpdateLocation(db.SubNbr(sid(rng)), rng.Int63n(1<<16))
		}},
		{Name: "InsertCallForwarding", Weight: 2, Build: func(rng *rand.Rand) *xct.Flow {
			return db.InsertCallForwarding(db.SubNbr(sid(rng)), 1+rng.Int63n(4), 8*rng.Int63n(3), 1+rng.Int63n(24), rng.Int63n(1<<30))
		}},
		{Name: "DeleteCallForwarding", Weight: 2, Build: func(rng *rand.Rand) *xct.Flow {
			return db.DeleteCallForwarding(db.SubNbr(sid(rng)), 1+rng.Int63n(4), 8*rng.Int63n(3))
		}},
	}
}

// ReadOnlyMix returns only the three read transactions (80% of standard
// TATP).
func (db *DB) ReadOnlyMix(opt MixOptions) workload.Mix {
	m := db.NewMix(opt)
	return workload.Mix{m[0], m[1], m[2]}
}
