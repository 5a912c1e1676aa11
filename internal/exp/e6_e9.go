package exp

import (
	"fmt"
	"time"

	"dora/internal/designer"
	"dora/internal/designer/sqlmini"
	"dora/internal/dora"
	"dora/internal/dora/balance"
	"dora/internal/metrics"
	"dora/internal/sm"
	"dora/internal/workload"
	"dora/internal/workload/tatp"
)

// E6Rebalance reproduces the demo's load-balancing scenario: a hot spot
// slides across the subscriber key space mid-run; with the balancer on,
// DORA splits the hot partitions and merges idle ones in real time,
// holding throughput; with it off, the hot micro-engine bottlenecks.
func E6Rebalance(c Config) (*Table, error) {
	c = c.fill()
	run := func(balanced bool) (tpsBefore, tpsAfter float64, splits, merges int64, err error) {
		cs := &metrics.CriticalSectionStats{}
		s, err := sm.Open(sm.Options{Frames: 1 << 14, CS: cs})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		defer s.Close()
		db, err := tatp.Load(s, c.Subscribers)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		e := dora.New(s, dora.Config{PartitionsPerTable: 2, Domains: db.Domains()})
		defer e.Close()
		var b *balance.Balancer
		if balanced {
			b = balance.NewBalancer(e, balance.Policy{
				Every: 20 * time.Millisecond, MinQueue: 4,
				MaxParts: 2 * c.Partitions, MinParts: 2,
			}, "subscriber", "access_info", "special_facility", "call_forwarding")
			b.Start()
			defer b.Stop()
		}
		hot := workload.NewHotspot(1, c.Subscribers, 0.9, c.Subscribers/20)
		hot.SetCenter(c.Subscribers / 4)
		// Move the hot spot mid-run (the demo's slider).
		moveAt := c.Duration / 2
		go func() {
			time.Sleep(moveAt)
			hot.SetCenter(3 * c.Subscribers / 4)
		}()
		var first, second float64
		var samples int
		dr := workload.Driver{
			Engine: e, Mix: db.NewMix(tatp.MixOptions{SIDGen: hot}),
			Clients: 2 * c.Clients, Duration: c.Duration, Seed: 66,
			SampleEvery: c.Duration / 10,
			OnSample: func(i int, tps float64) {
				if time.Duration(i+1)*(c.Duration/10) <= moveAt {
					first += tps
				} else {
					second += tps
				}
				samples++
			},
		}
		dr.Run()
		half := float64(samples) / 2
		if half == 0 {
			half = 1
		}
		var sc, mc int64
		if b != nil {
			sc, mc = b.Splits.Load(), b.Merges.Load()
		}
		return first / half, second / half, sc, mc, nil
	}
	tb := &Table{
		Title:  "E6  dynamic load balancing under a moving hot spot, TATP (DORA)",
		Header: []string{"balancer", "tps before move", "tps after move", "splits", "merges"},
		Caption: "hot spot: 90% of accesses in a 5%-wide window; the window jumps at\n" +
			"mid-run. The balancer splits hot ranges and merges idle ones.",
	}
	for _, balanced := range []bool{false, true} {
		b1, b2, sc, mc, err := run(balanced)
		if err != nil {
			return nil, err
		}
		name := "off"
		if balanced {
			name = "on"
		}
		tb.Rows = append(tb.Rows, []string{name, f1(b1), f1(b2), d2(sc), d2(mc)})
	}
	return tb, nil
}

// E7Alignment reproduces the second balancing component: a workload that
// probes subscriber by sub_nbr while the table is partitioned by s_id is
// 100% non-partition-aligned (every dispatch pays a resolver probe). The
// advisor detects it and suggests re-partitioning on sub_nbr; applying
// the suggestion restores aligned routing.
func E7Alignment(c Config) (*Table, error) {
	c = c.fill()
	cs := &metrics.CriticalSectionStats{}
	s, err := sm.Open(sm.Options{Frames: 1 << 14, CS: cs})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	db, err := tatp.Load(s, c.Subscribers)
	if err != nil {
		return nil, err
	}
	e := dora.New(s, dora.Config{PartitionsPerTable: c.Partitions, Domains: db.Domains()})
	defer e.Close()
	adv := balance.NewAlignmentAdvisor(e)
	adv.MinSamples = 50

	// Pure UpdateLocation (keyed by sub_nbr).
	ulMix := updateLocationMix(db)

	before := (&workload.Driver{
		Engine: e, Mix: ulMix, Clients: c.Clients, Duration: c.Duration, Seed: 77,
	}).Run()

	sugg := adv.CheckEngine(func(id uint32) string {
		if tbl := s.Cat.TableByID(id); tbl != nil {
			return tbl.Name
		}
		return ""
	})
	suggTxt := "none"
	applied := false
	for _, sg := range sugg {
		if sg.Table == "subscriber" {
			suggTxt = fmt.Sprintf("repartition %s on %s (%.0f%% unaligned)",
				sg.Table, sg.Field, 100*sg.UnalignedShare)
			if err := e.Repartition(sg.Table, sg.Field, 1, db.N); err != nil {
				return nil, err
			}
			applied = true
		}
	}
	if !applied {
		return nil, fmt.Errorf("exp: advisor produced no subscriber suggestion: %+v", sugg)
	}
	after := (&workload.Driver{
		Engine: e, Mix: ulMix, Clients: c.Clients, Duration: c.Duration, Seed: 78,
	}).Run()

	_, unalignedAfter := e.AlignmentStats(false)
	var subUnaligned int64
	for _, v := range unalignedAfter[db.Subscriber.ID] {
		subUnaligned += v
	}
	tb := &Table{
		Title:  "E7  non-partition-aligned accesses and the alignment advisor (DORA)",
		Header: []string{"phase", "tps", "unaligned dispatches"},
		Caption: "workload: 100% UpdateLocation (keyed by sub_nbr); advisor: " + suggTxt + "\n" +
			"after re-partitioning by sub_nbr the dispatches route directly.",
	}
	tb.Rows = append(tb.Rows, []string{"before (partitioned by s_id)", f1(before.Throughput), d2(before.Committed)})
	tb.Rows = append(tb.Rows, []string{"after  (partitioned by sub_nbr)", f1(after.Throughput), d2(subUnaligned)})
	return tb, nil
}

// updateLocationMix is a 100% UpdateLocation mix.
func updateLocationMix(db *tatp.DB) workload.Mix {
	full := db.NewMix(tatp.MixOptions{})
	for i := range full {
		if full[i].Name == "UpdateLocation" {
			return workload.Mix{{Name: "UpdateLocation", Weight: 100, Build: full[i].Build}}
		}
	}
	panic("exp: UpdateLocation missing from TATP mix")
}

// E8FlowGraphs reproduces the designer's flow-graph generation (Fig. 2):
// the TATP transactions in SQL-ish text, parsed and decomposed into
// actions and RVPs.
func E8FlowGraphs() (*Table, []string, error) {
	specs := []string{
		`TXN GetSubscriberData(:s) {
		  SELECT * FROM subscriber WHERE s_id = :s;
		}`,
		`TXN GetNewDestination(:s, :sf, :st, :end) {
		  SELECT is_active FROM special_facility WHERE s_id = :s AND sf_type = :sf;
		  SELECT numberx FROM call_forwarding WHERE s_id = :s AND start_time BETWEEN 0 AND 16;
		}`,
		`TXN UpdateSubscriberData(:s, :bit, :data) {
		  UPDATE subscriber SET bit_1 = :bit WHERE s_id = :s;
		  UPDATE special_facility SET data_a = :data WHERE s_id = :s;
		}`,
		`TXN UpdateLocation(:nbr, :vlr) {
		  SELECT s_id FROM subscriber WHERE sub_nbr = :nbr;
		  UPDATE subscriber SET vlr_location = :vlr WHERE s_id = s_id;
		}`,
		`TXN InsertCallForwarding(:nbr, :sf, :st, :end, :nx) {
		  SELECT s_id FROM subscriber WHERE sub_nbr = :nbr;
		  SELECT sf_type FROM special_facility WHERE s_id = s_id;
		  INSERT INTO call_forwarding VALUES (s_id, :sf, :st, :end, :nx);
		}`,
	}
	parts := map[string]string{
		"subscriber": "s_id", "access_info": "s_id",
		"special_facility": "s_id", "call_forwarding": "s_id",
	}
	tb := &Table{
		Title:  "E8  designer: generated transaction flow graphs (demo Fig. 2)",
		Header: []string{"transaction", "actions", "phases", "unaligned actions"},
	}
	var rendered []string
	for _, src := range specs {
		txn, err := sqlmini.ParseTxn(src)
		if err != nil {
			return nil, nil, err
		}
		fp := designer.Generate(txn, parts)
		unaligned := 0
		for _, a := range fp.Actions {
			if !a.Aligned {
				unaligned++
			}
		}
		tb.Rows = append(tb.Rows, []string{
			txn.Name, d2(int64(len(fp.Actions))), d2(int64(fp.NumPhases())), d2(int64(unaligned)),
		})
		rendered = append(rendered, fp.Render())
	}
	return tb, rendered, nil
}

// E9PhysicalDesign reproduces the designer's physical-design suggestion:
// the standard TATP mix with its frequencies in, partitioning fields,
// partition counts and index proposals out.
func E9PhysicalDesign(workers int) (*Table, string, error) {
	mk := func(src string) *sqlmini.Txn {
		txn, err := sqlmini.ParseTxn(src)
		if err != nil {
			panic(err)
		}
		return txn
	}
	workload := []designer.WeightedTxn{
		{Txn: mk(`TXN GetSubscriberData(:s) { SELECT * FROM subscriber WHERE s_id = :s; }`), Freq: 35},
		{Txn: mk(`TXN GetNewDestination(:s,:sf) {
			SELECT is_active FROM special_facility WHERE s_id = :s AND sf_type = :sf;
			SELECT numberx FROM call_forwarding WHERE s_id = :s; }`), Freq: 10},
		{Txn: mk(`TXN GetAccessData(:s,:ai) { SELECT data1 FROM access_info WHERE s_id = :s AND ai_type = :ai; }`), Freq: 35},
		{Txn: mk(`TXN UpdateSubscriberData(:s,:b,:d) {
			UPDATE subscriber SET bit_1 = :b WHERE s_id = :s;
			UPDATE special_facility SET data_a = :d WHERE s_id = :s; }`), Freq: 2},
		{Txn: mk(`TXN UpdateLocation(:nbr,:v) {
			SELECT s_id FROM subscriber WHERE sub_nbr = :nbr;
			UPDATE subscriber SET vlr_location = :v WHERE s_id = s_id; }`), Freq: 14},
		{Txn: mk(`TXN InsertCallForwarding(:nbr,:sf,:st,:e,:nx) {
			SELECT s_id FROM subscriber WHERE sub_nbr = :nbr;
			INSERT INTO call_forwarding VALUES (s_id, :sf, :st, :e, :nx); }`), Freq: 2},
		{Txn: mk(`TXN DeleteCallForwarding(:nbr,:sf,:st) {
			SELECT s_id FROM subscriber WHERE sub_nbr = :nbr;
			DELETE FROM call_forwarding WHERE s_id = s_id AND sf_type = :sf; }`), Freq: 2},
	}
	tables := map[string]designer.TableInfo{
		"subscriber":       {KeyFields: []string{"s_id"}, Rows: 100000, Indexes: [][]string{{"sub_nbr"}}},
		"access_info":      {KeyFields: []string{"s_id", "ai_type"}, Rows: 250000},
		"special_facility": {KeyFields: []string{"s_id", "sf_type"}, Rows: 250000},
		"call_forwarding":  {KeyFields: []string{"s_id", "sf_type", "start_time"}, Rows: 190000},
	}
	d := designer.Advise(workload, tables, workers)
	tb := &Table{
		Title:  "E9  designer: physical design for the standard TATP mix",
		Header: []string{"table", "partition field", "partitions", "aligned %", "load %"},
	}
	for _, tp := range d.Tables {
		tb.Rows = append(tb.Rows, []string{
			tp.Table, tp.PartitionField, d2(int64(tp.Partitions)),
			f1(100 * tp.AlignedShare), f1(100 * tp.AccessShare),
		})
	}
	return tb, d.Render(), nil
}
