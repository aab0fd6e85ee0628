package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
)

// The traced run splits host time by layer. It runs one untraced pass
// (the tracing-overhead baseline), one traced pass with a span around
// every operation, and then, for every app, the legs the pass lacks:
// capture-only passes, capture feeding the program's cache, capture
// feeding the cache and the object map, and live, search, sampler,
// shard, interval and Table 1 runs. A layer's time is the difference
// between two legs that differ by that layer alone.

// legOps are the legs measured for every app. A leg identical to an
// operation of the traced pass reuses that operation's measurement.
// The live leg comes before the shard leg so that the shard leg's check
// meets the app's sequential truth. Interval runs are made only for apps
// with a stated error bound.
func legOps(app string) []op {
	ops := []op{
		{kind: kindRefCapture, app: app},
		{kind: kindRunCapture, app: app},
		{kind: kindProbe, app: app},
		{kind: kindLookup, app: app},
		{kind: kindLive, app: app},
		{kind: kindSearch, app: app},
		{kind: kindSample, app: app, every: table1Interval(app)},
		{kind: kindShard, app: app},
		{kind: kindCell, app: app},
	}
	if _, ok := intervalBounds[app]; ok {
		ops = append(ops, op{kind: kindInterval, app: app})
	}
	return ops
}

// layers names the accounting's layers in report order.
var layers = []string{"machine", "cache", "objmap", "core.sample", "core.search", "shard", "interval", "experiments"}

func measureTraced(s *spec, outDir string, log io.Writer) (result, error) {
	models, err := buildModels(s)
	if err != nil {
		return result{}, err
	}
	c := &checker{models: models, log: log}
	base := runPass(s, nil)
	c.check(base.outs)

	rec := newRecorder()
	traced := runPass(s, rec)
	c.check(traced.outs)
	legs := map[op]outcome{}
	for _, o := range traced.outs {
		legs[o.op] = o
	}
	var extra []outcome
	endLegs := rec.begin("legs/" + s.name)
	for _, app := range s.apps {
		for _, o := range legOps(app) {
			if _, ok := legs[o]; ok {
				continue
			}
			end := rec.begin(o.String())
			out := timeOp(s, o)
			end()
			legs[o] = out
			extra = append(extra, out)
		}
	}
	endLegs()
	c.check(extra)
	if c.failed > 0 {
		return result{Correct: false, Attempted: c.attempted, Failed: c.failed}, nil
	}

	metrics, err := layerMetrics(s, models, legs)
	if err != nil {
		return result{}, err
	}
	acct := account(legs, traced)
	// The pass span's CPU also covers the forced collections before each
	// operation, the heap sampler and the loop; no layer explains that.
	passCPU := rec.spans[0].CPU
	unexplained := passCPU
	for _, l := range layers {
		unexplained -= acct[l]
	}
	metrics["unexplained_s"] = metric{unexplained, "s"}
	metrics["trace.overhead_pct"] = metric{100 * (traced.cpu - base.cpu) / base.cpu, "%"}

	fmt.Fprintf(log, "perfbench: %s traced pass %.3f s CPU, untraced pass cpu_s %.3f s, tracing overhead %.2f%%\n",
		s.name, passCPU, base.cpu, metrics["trace.overhead_pct"].Value)
	for _, l := range layers {
		fmt.Fprintf(log, "  %-12s %8.3f s %6.1f%%\n", l, acct[l], 100*acct[l]/passCPU)
	}
	fmt.Fprintf(log, "  %-12s %8.3f s %6.1f%%\n", "unexplained", unexplained, 100*unexplained/passCPU)

	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", s.name, s.seed))
	report := map[string]any{
		"workload":          s.name,
		"seed":              s.seed,
		"num_cpu":           runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go_version":        runtime.Version(),
		"untraced_cpu_s":    base.cpu,
		"traced_cpu_s":      traced.cpu,
		"traced_pass_cpu_s": passCPU,
		"layer_cpu_s":       acct,
		"unexplained_cpu_s": unexplained,
		"metrics":           metrics,
	}
	if err := rec.write(path, report); err != nil {
		return result{}, err
	}
	fmt.Fprintln(log, "perfbench: spans written to", path)
	return result{Correct: true, Attempted: c.attempted, Failed: c.failed, Metrics: metrics}, nil
}

// layerMetrics derives the per-layer metrics from the legs, summed over
// the workload's apps.
func layerMetrics(s *spec, models map[string]modelResult, legs map[op]outcome) (map[string]metric, error) {
	leg := func(kind, app string) outcome { return legs[op{kind: kind, app: app}] }
	var refcap, capRefs, runcap, live, liveRefs, probe, probeRefs, lookup, lookupMisses float64
	var search, shardWall, shardCPU, ivCPU, runcapIv, ivHeap, ivErr, remainder float64
	for _, app := range s.apps {
		rc, pr, lk, lv := leg(kindRefCapture, app), leg(kindProbe, app), leg(kindLookup, app), leg(kindLive, app)
		refcap += rc.CPU
		capRefs += float64(rc.Refs)
		runcap += leg(kindRunCapture, app).CPU
		probe += pr.CPU - rc.CPU
		probeRefs += float64(pr.Refs)
		lookup += lk.CPU - pr.CPU
		lookupMisses += float64(lk.Misses)
		live += lv.CPU
		liveRefs += float64(lv.Stats.Accesses())

		se, sh, cell := leg(kindSearch, app), leg(kindShard, app), leg(kindCell, app)
		sm := legs[op{kind: kindSample, app: app, every: table1Interval(app)}]
		if cell.Cell.SampleInterval != sm.op.every {
			return nil, fmt.Errorf("%s: Table1App sampled 1 in %d misses, the sampler leg 1 in %d", app, cell.Cell.SampleInterval, sm.op.every)
		}
		search += se.CPU - lv.CPU
		shardWall += sh.Wall
		shardCPU += sh.CPU
		if iv, ok := legs[op{kind: kindInterval, app: app}]; ok {
			ivCPU += iv.CPU
			runcapIv += leg(kindRunCapture, app).CPU
			ivHeap = max(ivHeap, iv.HeapMiB)
			m := models[app]
			ivErr = max(ivErr, intervalError(iv.Truth, &m.Truth).max)
		}
		remainder += cell.Wall - (sh.Wall + sm.Wall + se.Wall)
	}
	// The sampler layer is measured on the workload's own sampler runs,
	// or on the Table 1 sampler legs when the workload has none.
	var sample, irqs float64
	for _, o := range samplerOps(s) {
		sample += legs[o].CPU - leg(kindLive, o.app).CPU
		irqs += float64(legs[o].Interrupts)
	}
	return map[string]metric{
		"machine.refcapture_s":       {refcap, "s"},
		"machine.runcapture_s":       {runcap, "s"},
		"machine.capture_ns_per_ref": {1e9 * refcap / capRefs, "ns"},
		"machine.live_s":             {live, "s"},
		"machine.live_ns_per_ref":    {1e9 * live / liveRefs, "ns"},
		"cache.probe_s":              {probe, "s"},
		"cache.probe_ns_per_ref":     {1e9 * probe / probeRefs, "ns"},
		"core.search_s":              {search, "s"},
		"core.search_ns_per_ref":     {1e9 * search / liveRefs, "ns"},
		"core.sample_s":              {sample, "s"},
		"core.sample_us_per_irq":     {1e6 * sample / irqs, "us"},
		"objmap.lookup_s":            {lookup, "s"},
		"objmap.lookup_ns":           {1e9 * lookup / lookupMisses, "ns"},
		"shard.wall_s":               {shardWall, "s"},
		"shard.cpu_s":                {shardCPU, "s"},
		"shard.sweep_s":              {shardCPU - refcap, "s"},
		"interval.cpu_s":             {ivCPU, "s"},
		"interval.sim_s":             {ivCPU - runcapIv, "s"},
		"interval.peak_heap_mib":     {ivHeap, "MiB"},
		"interval.max_rel_err_pct":   {ivErr, "%"},
		"experiments.remainder_s":    {remainder, "s"},
	}, nil
}

// samplerOps returns the round's sampler operations or, for a workload
// without any, its Table 1 sampler legs.
func samplerOps(s *spec) []op {
	var ops []op
	for _, o := range s.round {
		if o.kind == kindSample {
			ops = append(ops, o)
		}
	}
	if len(ops) == 0 {
		for _, app := range s.apps {
			ops = append(ops, op{kind: kindSample, app: app, every: table1Interval(app)})
		}
	}
	return ops
}

// account splits the traced pass's CPU time among the layers. A live
// run is capture plus machine bookkeeping, cache probes and object
// lookups; a sampler or search run is a live run plus its profiler; a
// shard or interval run is a capture plus the engine; a Table 1 cell is
// its three runs plus what the experiments layer adds around them.
func account(legs map[op]outcome, traced pass) map[string]float64 {
	acct := map[string]float64{}
	leg := func(kind, app string) outcome { return legs[op{kind: kind, app: app}] }
	liveSplit := func(app string, cpu float64) {
		rc, pr, lk := leg(kindRefCapture, app), leg(kindProbe, app), leg(kindLookup, app)
		acct["cache"] += pr.CPU - rc.CPU
		acct["objmap"] += lk.CPU - pr.CPU
		acct["machine"] += cpu - (lk.CPU - rc.CPU)
	}
	var attribute func(o outcome)
	attribute = func(o outcome) {
		app := o.op.app
		switch o.op.kind {
		case kindLive:
			liveSplit(app, o.CPU)
		case kindSample, kindSearch:
			lv := leg(kindLive, app)
			liveSplit(app, lv.CPU)
			acct["core."+o.op.kind] += o.CPU - lv.CPU
		case kindShard:
			rc := leg(kindRefCapture, app)
			acct["machine"] += rc.CPU
			acct["shard"] += o.CPU - rc.CPU
		case kindInterval:
			uc := leg(kindRunCapture, app)
			acct["machine"] += uc.CPU
			acct["interval"] += o.CPU - uc.CPU
		case kindCell:
			parts := []outcome{leg(kindShard, app), legs[op{kind: kindSample, app: app, every: table1Interval(app)}], leg(kindSearch, app)}
			rest := o.CPU
			for _, p := range parts {
				attribute(p)
				rest -= p.CPU
			}
			acct["experiments"] += rest
		}
	}
	for _, o := range traced.outs {
		attribute(o)
	}
	return acct
}
