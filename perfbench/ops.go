package main

import (
	"context"
	"fmt"

	"membottle"
	"membottle/internal/cache"
	"membottle/internal/experiments"
	"membottle/internal/interval"
	"membottle/internal/machine"
	"membottle/internal/objmap"
	"membottle/internal/shard"
	"membottle/internal/truth"
)

// workers is the goroutine count of the shard and interval engines,
// matching the two CPUs the benchmark is sized for.
const workers = 2

// estimate is one profiler estimate: object name and percentage.
type estimate struct {
	Name string
	Pct  float64
}

// outcome is what one operation leaves for the checks, in compact form
// so that a round holds no simulated system once its operation is done.
type outcome struct {
	op     op
	budget uint64
	err    error

	// AppInsts sums the application instructions of the operation's
	// simulation runs (three for a Table 1 cell, one otherwise).
	AppInsts uint64

	// Truth-producing runs (live, shard, interval).
	Truth *table
	Stats cache.Stats

	// Instrumented runs (sample, search): the PMU's global miss counter,
	// interrupts delivered and the profiler's estimates.
	GlobalMisses uint64
	Interrupts   uint64
	Samples      uint64
	Estimates    []estimate

	Cell *experiments.AppResult

	// Refs and Misses count the references and misses of capture legs,
	// the denominators of per-reference layer costs.
	Refs    uint64
	Misses  uint64
	Matched uint64 // misses the lookup leg resolved to an object

	// CPU and Wall are the operation's seconds; HeapMiB is the peak Go
	// heap in use while it ran.
	CPU, Wall, HeapMiB float64
}

func tableOf(c *truth.Counter) *table {
	t := &table{Total: c.Total, Unmatched: c.Unmatched, Misses: map[string]uint64{}, ID: map[string]int{}}
	for _, r := range c.Ranked() {
		t.Misses[r.Object.Name] += r.Misses
		t.ID[r.Object.Name] = r.Object.ID
	}
	return t
}

func estimatesOf(es []membottle.Estimate) []estimate {
	out := make([]estimate, len(es))
	for i, e := range es {
		out[i] = estimate{Name: e.Object.Name, Pct: e.Pct}
	}
	return out
}

// loaded builds a system with the default configuration and loads app.
func loaded(app string, skipTruth bool) (*membottle.System, error) {
	cfg := membottle.DefaultConfig()
	cfg.SkipTruth = skipTruth
	sys := membottle.NewSystem(cfg)
	if err := sys.LoadWorkloadByName(app); err != nil {
		return nil, err
	}
	return sys, nil
}

// setupRun builds the system a run of the given kind starts from: the
// configured system with the app loaded and the profiler attached.
func setupRun(kind string, o op) error {
	sys, err := loaded(o.app, kind == kindShard || kind == kindInterval)
	if err != nil {
		return err
	}
	switch kind {
	case kindSample:
		every := o.every
		if every == 0 {
			every = table1Interval(o.app)
		}
		return sys.Attach(membottle.NewSampler(membottle.SamplerConfig{Interval: every}))
	case kindSearch:
		return sys.Attach(membottle.NewSearch(membottle.SearchConfig{N: 10, Interval: 8_000_000}))
	}
	return nil
}

// execute runs one operation. Every simulation goes through the
// program's public entry points; nothing is memoized between calls.
func execute(o op, budget uint64, seed int64) outcome {
	out := outcome{op: o, budget: budget}
	ctx := context.Background()
	switch o.kind {
	case kindCell:
		res, err := experiments.Table1App(o.app, experiments.Options{
			Budget:       budget,
			Seed:         seed,
			Serial:       true,
			TruthWorkers: workers,
		})
		out.err = err
		out.Cell = &res
		out.AppInsts = res.PlainOverhead.AppInstructions + res.SampleOverhead.AppInstructions + res.SearchOverhead.AppInstructions
	case kindLive, kindSample, kindSearch:
		sys, err := loaded(o.app, false)
		if err != nil {
			out.err = err
			return out
		}
		var sampler *membottle.Sampler
		var search *membottle.Search
		switch o.kind {
		case kindSample:
			sampler = membottle.NewSampler(membottle.SamplerConfig{Interval: o.every, Mode: membottle.IntervalFixed, Seed: seed})
			err = sys.Attach(sampler)
		case kindSearch:
			search = membottle.NewSearch(membottle.SearchConfig{N: 10, Interval: 8_000_000})
			err = sys.Attach(search)
		}
		if err == nil {
			err = sys.RunContext(ctx, budget)
		}
		out.err = err
		m := sys.Machine
		out.AppInsts = m.AppInsts
		out.Stats = m.Cache.Stats
		out.GlobalMisses = m.PMU.GlobalMisses
		out.Interrupts = m.Interrupts
		switch {
		case sampler != nil:
			out.Samples = sampler.Samples()
			out.Estimates = estimatesOf(sampler.Estimates())
		case search != nil:
			out.Estimates = estimatesOf(search.Estimates())
		default:
			out.Truth = tableOf(sys.Truth)
		}
	case kindShard:
		w, err := membottle.NewWorkload(o.app)
		if err != nil {
			out.err = err
			return out
		}
		res, err := shard.Run(ctx, w, budget, shard.Config{Workers: workers})
		if out.err = err; err != nil {
			return out
		}
		out.AppInsts = res.AppInsts
		out.Truth = tableOf(res.Truth)
		out.Stats = res.Stats
	case kindInterval:
		w, err := membottle.NewWorkload(o.app)
		if err != nil {
			out.err = err
			return out
		}
		res, err := interval.Run(ctx, w, budget, interval.Config{Seed: seed, Workers: workers})
		if out.err = err; err != nil {
			return out
		}
		out.AppInsts = res.AppInsts
		out.Truth = tableOf(res.Truth)
		out.Stats = res.Stats
	case kindRefCapture, kindRunCapture, kindProbe, kindLookup:
		out.err = capture(&out, o, budget)
	default:
		out.err = fmt.Errorf("unknown operation kind %q", o.kind)
	}
	return out
}

// nullRefs is a RefSink that only counts.
type nullRefs struct{ refs uint64 }

func (s *nullRefs) ConsumeRefs(refs []machine.Ref, _ uint64) { s.refs += uint64(len(refs)) }

// nullRuns is a RunSink that only counts.
type nullRuns struct{ refs uint64 }

func (s *nullRuns) ConsumeRuns(_ []uint64, refs, _, _ uint64) { s.refs += refs }

// probeRefs feeds captured references to a cache of the default
// geometry and, with a map, looks every miss up in it.
type probeRefs struct {
	c       *cache.Cache
	om      *objmap.Map
	refs    uint64
	misses  uint64
	matched uint64
}

// ConsumeRefs implements machine.RefSink.
//
//mb:coldpath benchmark leg; its cost is the measurement, not program hot-path code
func (s *probeRefs) ConsumeRefs(refs []machine.Ref, _ uint64) {
	s.refs += uint64(len(refs))
	for len(refs) > 0 {
		n, _, missed := s.c.AccessBatch(refs)
		if missed {
			s.misses++
			if s.om != nil && s.om.Lookup(refs[n-1].Addr) != nil {
				s.matched++
			}
		}
		refs = refs[n:]
	}
}

// capture runs app's reference stream into one of the capture legs'
// sinks: no cache, a cache, or a cache plus object lookup per miss.
func capture(out *outcome, o op, budget uint64) error {
	sys, err := loaded(o.app, true)
	if err != nil {
		return err
	}
	m := sys.Machine
	var refs nullRefs
	var runs nullRuns
	var probe probeRefs
	switch o.kind {
	case kindRefCapture:
		m.SetCapture(&refs)
	case kindRunCapture:
		m.SetRunCapture(&runs)
	default:
		probe.c = cache.New(membottle.DefaultConfig().Cache)
		if o.kind == kindLookup {
			probe.om = sys.Objects
		}
		m.SetCapture(&probe)
	}
	err = sys.RunContext(context.Background(), budget)
	m.FlushCapture()
	out.AppInsts = m.AppInsts
	out.Refs = refs.refs + runs.refs + probe.refs
	out.Misses, out.Matched = probe.misses, probe.matched
	return err
}
