package main

import (
	"fmt"
	"math"
)

// Output checks. Every one compares an operation's output with the
// reference model or with a property the method must have; none
// compares with a stored copy of earlier output.

// errorBounds is an app's interval-engine accuracy contract, in percent:
// the relative error of the total miss counter, of the largest counter,
// and of the worst counter holding at least 1% of all misses.
type errorBounds struct{ total, top, max float64 }

// intervalBounds are the interval engine's per-app error bounds. Those
// for tomcatv and mgrid are the ones the interval oracle suite
// (internal/interval/oracle_test.go) states; the suite states none for
// mcf, whose bound README.md gives. Only these apps get interval runs:
// the suite's compress bound does not hold at compress's default budget
// (see README.md).
var intervalBounds = map[string]errorBounds{
	"tomcatv": {total: 1, top: 8, max: 15},
	"mgrid":   {total: 0.5, top: 1, max: 1},
	"mcf":     {total: 0.5, top: 1, max: 1},
}

// checkBudget: a run executes at least its budget in application
// instructions.
func checkBudget(appInsts, budget uint64) error {
	if appInsts < budget {
		return fmt.Errorf("executed %d application instructions, budget %d", appInsts, budget)
	}
	return nil
}

// checkTruth: a ground-truth table equals the reference model's.
func checkTruth(got, want *table) error {
	if got.Total != want.Total || got.Unmatched != want.Unmatched {
		return fmt.Errorf("misses total/unmatched %d/%d, model %d/%d", got.Total, got.Unmatched, want.Total, want.Unmatched)
	}
	if len(got.Misses) != len(want.Misses) {
		return fmt.Errorf("%d objects with misses, model %d", len(got.Misses), len(want.Misses))
	}
	for name, n := range want.Misses {
		if got.Misses[name] != n {
			return fmt.Errorf("object %s: %d misses, model %d", name, got.Misses[name], n)
		}
	}
	return nil
}

// checkStats: a truth engine's cache statistics equal the model's.
func checkStats(out outcome, m modelResult) error {
	st := out.Stats
	if st.Reads != m.Reads || st.Writes != m.Writes || st.Misses != m.Truth.Total || st.Hits != st.Reads+st.Writes-st.Misses {
		return fmt.Errorf("cache stats %+v, model reads %d writes %d misses %d", st, m.Reads, m.Writes, m.Truth.Total)
	}
	return nil
}

// checkIdentical: two exact engines produced the same truth and stats.
func checkIdentical(a, b outcome) error {
	if a.Stats != b.Stats {
		return fmt.Errorf("%s stats %+v, %s stats %+v", a.op, a.Stats, b.op, b.Stats)
	}
	if err := checkTruth(a.Truth, b.Truth); err != nil {
		return fmt.Errorf("%s differs from %s: %w", a.op, b.op, err)
	}
	return nil
}

// relErr is |est-actual|/actual in percent.
func relErr(est, actual uint64) float64 {
	if actual == 0 {
		if est == 0 {
			return 0
		}
		return 100
	}
	return 100 * math.Abs(float64(est)-float64(actual)) / float64(actual)
}

// intervalError returns the interval estimate's error against exact
// truth: total counter, largest counter, and worst counter holding at
// least 1% of all misses.
func intervalError(est, exact *table) errorBounds {
	e := errorBounds{total: relErr(est.Total, exact.Total)}
	e.max = e.total
	for i, name := range exact.ranked() {
		if exact.pct(name) < 1 {
			continue
		}
		r := relErr(est.Misses[name], exact.Misses[name])
		if i == 0 {
			e.top = r
		}
		e.max = math.Max(e.max, r)
	}
	return e
}

// checkInterval: the interval estimate stays within the app's bounds.
func checkInterval(app string, est, exact *table) error {
	b, ok := intervalBounds[app]
	if !ok {
		return fmt.Errorf("no interval error bound stated for %s", app)
	}
	e := intervalError(est, exact)
	if e.total > b.total || e.top > b.top || e.max > b.max {
		return fmt.Errorf("interval error total %.3f%% top %.3f%% max %.3f%% exceeds bound %.3g/%.3g/%.3g", e.total, e.top, e.max, b.total, b.top, b.max)
	}
	return nil
}

// checkMissFloor: an instrumented run misses at least as often as the
// plain run, since the profiler's extra references can only add LRU
// misses.
func checkMissFloor(instrumented, plain uint64) error {
	if instrumented < plain {
		return fmt.Errorf("instrumented run has %d misses, plain run %d", instrumented, plain)
	}
	return nil
}

// checkSampleCount: a fixed-interval sampler takes exactly one sample
// per interval of global misses.
func checkSampleCount(samples, globalMisses, every uint64) error {
	if every == 0 || samples != globalMisses/every {
		return fmt.Errorf("%d samples for %d global misses at 1 in %d", samples, globalMisses, every)
	}
	return nil
}

// checkEstimates: every estimate names an object of the truth table and
// gives a percentage in [0, 100].
func checkEstimates(es []estimate, truth *table) error {
	for _, e := range es {
		if _, ok := truth.Misses[e.Name]; !ok {
			return fmt.Errorf("estimate names %s, which has no misses in the truth table", e.Name)
		}
		if !(e.Pct >= 0 && e.Pct <= 100) {
			return fmt.Errorf("estimate for %s is %g%%", e.Name, e.Pct)
		}
	}
	return nil
}

// checkCapture: a capture leg saw the model's reference stream, and a
// leg feeding the program's cache saw the model's misses and, with
// lookups, resolved exactly the misses the model attributes.
func checkCapture(out outcome, m modelResult) error {
	if out.Refs != m.Reads+m.Writes {
		return fmt.Errorf("captured %d references, model %d", out.Refs, m.Reads+m.Writes)
	}
	switch out.op.kind {
	case kindProbe, kindLookup:
		if out.Misses != m.Truth.Total {
			return fmt.Errorf("cache saw %d misses, model %d", out.Misses, m.Truth.Total)
		}
	}
	if out.op.kind == kindLookup && out.Matched != m.Truth.Total-m.Truth.Unmatched {
		return fmt.Errorf("lookups resolved %d misses, model attributes %d", out.Matched, m.Truth.Total-m.Truth.Unmatched)
	}
	return nil
}

// runCheck is the verdict on one simulation run.
type runCheck struct {
	run string
	err error
}

// checkOutcome checks every simulation run of one operation against the
// app's reference model; seq is the same round's sequential truth for
// the app, if any.
func checkOutcome(out outcome, m modelResult, seq *outcome) []runCheck {
	name := out.op.String()
	if out.op.kind == kindCell {
		return checkCell(name, out, m)
	}
	if out.err != nil {
		return []runCheck{{name, out.err}}
	}
	var err error
	switch out.op.kind {
	case kindLive:
		err = firstErr(checkBudget(out.AppInsts, out.budget), checkTruth(out.Truth, &m.Truth), checkStats(out, m))
	case kindShard:
		err = firstErr(checkBudget(out.AppInsts, out.budget), checkTruth(out.Truth, &m.Truth), checkStats(out, m))
		if err == nil && seq != nil && seq.err == nil {
			err = checkIdentical(out, *seq)
		}
	case kindInterval:
		err = firstErr(checkBudget(out.AppInsts, out.budget), checkInterval(out.op.app, out.Truth, &m.Truth))
	case kindSample:
		err = firstErr(checkBudget(out.AppInsts, out.budget), checkMissFloor(out.Stats.Misses, m.Truth.Total),
			checkSampleCount(out.Samples, out.GlobalMisses, out.op.every), checkEstimates(out.Estimates, &m.Truth))
	case kindSearch:
		err = firstErr(checkBudget(out.AppInsts, out.budget), checkMissFloor(out.Stats.Misses, m.Truth.Total),
			checkEstimates(out.Estimates, &m.Truth))
	default:
		err = firstErr(checkBudget(out.AppInsts, out.budget), checkCapture(out, m))
	}
	return []runCheck{{name, err}}
}

// maxCellRows is Table1App's cap on rows per application (eight ranked
// rows plus four more for objects only a technique reported).
const maxCellRows = 12

// checkCell checks a Table 1 cell's three runs. The cell reports its
// plain run's ranks and percentages, each run's overhead counters, and
// the sampler's count and interval.
func checkCell(name string, out outcome, m modelResult) []runCheck {
	if out.err == nil && out.Cell.Err != nil {
		out.err = out.Cell.Err
	}
	if out.err != nil {
		return []runCheck{{name + "/plain", out.err}, {name + "/sample", out.err}, {name + "/search", out.err}}
	}
	r := out.Cell
	plain := func() error {
		if err := checkBudget(r.PlainOverhead.AppInstructions, out.budget); err != nil {
			return err
		}
		if r.PlainOverhead.TotalMisses != m.Truth.Total {
			return fmt.Errorf("plain run has %d misses, model %d", r.PlainOverhead.TotalMisses, m.Truth.Total)
		}
		rank := map[string]int{}
		for i, n := range m.Truth.ranked() {
			rank[n] = i + 1
		}
		for _, row := range r.Rows {
			if row.ActualRank != rank[row.Object] || row.ActualPct != m.Truth.pct(row.Object) {
				return fmt.Errorf("%s actual rank %d at %g%%, model rank %d at %g%%",
					row.Object, row.ActualRank, row.ActualPct, rank[row.Object], m.Truth.pct(row.Object))
			}
		}
		return nil
	}
	// ranks checks one technique's rows: percentages in [0, 100], and,
	// when the row cap did not cut the table, ranks 1..k with no gap. A
	// gap means an estimate named an object outside the truth table,
	// since the cell keeps only objects of the truth table.
	type rowEst struct {
		object string
		rank   int
		pct    float64
	}
	var sampled, searched []rowEst
	for _, row := range r.Rows {
		sampled = append(sampled, rowEst{row.Object, row.SampleRank, row.SamplePct})
		searched = append(searched, rowEst{row.Object, row.SearchRank, row.SearchPct})
	}
	ranks := func(tech string, es []rowEst) error {
		seen := map[int]bool{}
		hi := 0
		for _, e := range es {
			if e.rank == 0 {
				continue
			}
			if !(e.pct >= 0 && e.pct <= 100) {
				return fmt.Errorf("%s estimate for %s is %g%%", tech, e.object, e.pct)
			}
			if seen[e.rank] {
				return fmt.Errorf("%s rank %d appears twice", tech, e.rank)
			}
			seen[e.rank] = true
			hi = max(hi, e.rank)
		}
		if len(es) < maxCellRows && len(seen) != hi {
			return fmt.Errorf("%s ranks skip %d of 1..%d: an estimate names an object outside the truth table", tech, hi-len(seen), hi)
		}
		return nil
	}
	sample := func() error {
		ov := r.SampleOverhead
		return firstErr(checkBudget(ov.AppInstructions, out.budget), checkMissFloor(ov.TotalMisses, m.Truth.Total),
			checkSampleCount(r.SampleCount, ov.TotalMisses, r.SampleInterval), ranks("sample", sampled))
	}
	search := func() error {
		ov := r.SearchOverhead
		return firstErr(checkBudget(ov.AppInstructions, out.budget), checkMissFloor(ov.TotalMisses, m.Truth.Total),
			ranks("search", searched))
	}
	return []runCheck{{name + "/plain", plain()}, {name + "/sample", sample()}, {name + "/search", search()}}
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
