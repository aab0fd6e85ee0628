package main

import (
	"strings"
	"testing"
)

// clone deep-copies the parts of an outcome the corruptions below touch.
func clone(o outcome) outcome {
	if o.Truth != nil {
		t := *o.Truth
		t.Misses = map[string]uint64{}
		for k, v := range o.Truth.Misses {
			t.Misses[k] = v
		}
		o.Truth = &t
	}
	o.Estimates = append([]estimate(nil), o.Estimates...)
	if o.Cell != nil {
		c := *o.Cell
		c.Rows = append(c.Rows[:0:0], c.Rows...)
		o.Cell = &c
	}
	return o
}

// top returns the name of the table's largest counter.
func top(t *table) string { return t.ranked()[0] }

// rowWith returns the index of the first cell row for which has holds.
func rowWith(t *testing.T, o *outcome, has func(i int) bool) int {
	t.Helper()
	for i := range o.Cell.Rows {
		if has(i) {
			return i
		}
	}
	t.Fatal("no cell row has an estimate")
	return -1
}

// TestChecksCatchCorruption runs every kind of operation once on
// tomcatv, shows each passes its checks, and shows that corrupting one
// count in its output makes the check that reads it fail.
func TestChecksCatchCorruption(t *testing.T) {
	const app, budget, seed = "tomcatv", 10_000_000, 3
	m, err := runModel(app, budget)
	if err != nil {
		t.Fatal(err)
	}
	outs := map[string]outcome{}
	for _, o := range []op{
		{kind: kindLive, app: app}, {kind: kindShard, app: app},
		{kind: kindSample, app: app, every: 1000}, {kind: kindSearch, app: app},
		{kind: kindCell, app: app},
		{kind: kindRefCapture, app: app}, {kind: kindProbe, app: app}, {kind: kindLookup, app: app},
	} {
		out := execute(o, budget, seed)
		for _, rc := range checkOutcome(out, m, nil) {
			if rc.err != nil {
				t.Fatalf("%s fails before corruption: %v", rc.run, rc.err)
			}
		}
		outs[o.kind] = out
	}
	if len(outs[kindSearch].Estimates) == 0 || len(outs[kindSample].Estimates) == 0 {
		t.Fatal("a profiler reported no estimates to corrupt")
	}

	cases := []struct {
		name, kind, run string // run names the failing run, by suffix
		corrupt         func(o *outcome, seq *outcome)
	}{
		{"live object count", kindLive, "", func(o, _ *outcome) { o.Truth.Misses[top(o.Truth)]++ }},
		{"live cache reads", kindLive, "", func(o, _ *outcome) { o.Stats.Reads++ }},
		{"live instructions", kindLive, "", func(o, _ *outcome) { o.AppInsts = o.budget - 1 }},
		{"shard total", kindShard, "", func(o, _ *outcome) { o.Truth.Total++ }},
		{"shard differs from sequential", kindShard, "", func(_, seq *outcome) { seq.Stats.Hits++ }},
		{"sample count", kindSample, "", func(o, _ *outcome) { o.Samples++ }},
		{"sample global misses", kindSample, "", func(o, _ *outcome) { o.GlobalMisses += o.op.every }},
		{"sample below plain misses", kindSample, "", func(o, _ *outcome) { o.Stats.Misses = m.Truth.Total - 1 }},
		{"sample names unknown object", kindSample, "", func(o, _ *outcome) { o.Estimates[0].Name = "nowhere" }},
		{"sample percentage", kindSample, "", func(o, _ *outcome) { o.Estimates[0].Pct = 100.5 }},
		{"search below plain misses", kindSearch, "", func(o, _ *outcome) { o.Stats.Misses = m.Truth.Total - 1 }},
		{"search names unknown object", kindSearch, "", func(o, _ *outcome) { o.Estimates[0].Name = "nowhere" }},
		{"cell plain misses", kindCell, "/plain", func(o, _ *outcome) { o.Cell.PlainOverhead.TotalMisses++ }},
		{"cell actual rank", kindCell, "/plain", func(o, _ *outcome) { o.Cell.Rows[0].ActualRank++ }},
		{"cell plain instructions", kindCell, "/plain", func(o, _ *outcome) { o.Cell.PlainOverhead.AppInstructions = o.budget - 1 }},
		{"cell sample count", kindCell, "/sample", func(o, _ *outcome) { o.Cell.SampleCount++ }},
		{"cell sample below plain", kindCell, "/sample", func(o, _ *outcome) { o.Cell.SampleOverhead.TotalMisses = m.Truth.Total - 1 }},
		{"cell sample rank gap", kindCell, "/sample", func(o, _ *outcome) {
			o.Cell.Rows[rowWith(t, o, func(i int) bool { return o.Cell.Rows[i].SampleRank > 0 })].SampleRank += 20
		}},
		{"cell search percentage", kindCell, "/search", func(o, _ *outcome) {
			o.Cell.Rows[rowWith(t, o, func(i int) bool { return o.Cell.Rows[i].SearchRank > 0 })].SearchPct = -1
		}},
		{"cell search instructions", kindCell, "/search", func(o, _ *outcome) { o.Cell.SearchOverhead.AppInstructions = o.budget - 1 }},
		{"cell search below plain", kindCell, "/search", func(o, _ *outcome) { o.Cell.SearchOverhead.TotalMisses = m.Truth.Total - 1 }},
		{"capture references", kindRefCapture, "", func(o, _ *outcome) { o.Refs++ }},
		{"probe misses", kindProbe, "", func(o, _ *outcome) { o.Misses++ }},
		{"lookup matches", kindLookup, "", func(o, _ *outcome) { o.Matched-- }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := clone(outs[c.kind])
			seq := clone(outs[kindLive])
			c.corrupt(&o, &seq)
			failed := ""
			for _, rc := range checkOutcome(o, m, &seq) {
				if rc.err != nil {
					failed += rc.run + ": " + rc.err.Error() + "\n"
					if !strings.HasSuffix(rc.run, c.run) {
						t.Errorf("run %s failed, want a run ending %q", rc.run, c.run)
					}
				}
			}
			if failed == "" {
				t.Fatal("corruption passed every check")
			}
			t.Log(failed)
		})
	}
}

// TestIntervalCheckCatchesCorruption: an estimate equal to exact truth
// passes; moving one counter by more than the app's bound fails.
func TestIntervalCheckCatchesCorruption(t *testing.T) {
	m, err := runModel("mgrid", 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	est := clone(outcome{Truth: &m.Truth})
	if err := checkInterval("mgrid", est.Truth, &m.Truth); err != nil {
		t.Fatalf("exact estimate fails: %v", err)
	}
	name := top(est.Truth)
	est.Truth.Misses[name] += est.Truth.Misses[name]/50 + 1 // 2%, above mgrid's 1% bound
	if err := checkInterval("mgrid", est.Truth, &m.Truth); err == nil {
		t.Fatal("a counter 2% off passed mgrid's 1% bound")
	}
	est.Truth.Misses[name] = m.Truth.Misses[name]
	est.Truth.Total += est.Truth.Total / 100 // 1%, above the 0.5% total bound
	if err := checkInterval("mgrid", est.Truth, &m.Truth); err == nil {
		t.Fatal("a total 1% off passed mgrid's 0.5% bound")
	}
}
