package main

import (
	"fmt"
	"hash/fnv"
)

// Operation kinds. The first six are simulation operations a workload's
// round performs; the last four are the capture-side legs only the
// traced run adds, to split a live run into layers.
const (
	kindCell     = "cell"     // experiments.Table1App: plain, sampler and search runs
	kindLive     = "live"     // uninstrumented sequential run with ground truth
	kindSample   = "sample"   // fixed-interval sampler run
	kindSearch   = "search"   // ten-way search run
	kindShard    = "shard"    // set-sharded ground truth
	kindInterval = "interval" // representative-interval ground truth

	kindRefCapture = "refcapture" // capture into a null RefSink
	kindRunCapture = "runcapture" // capture into a null RunSink
	kindProbe      = "probe"      // capture feeding cache.Cache.AccessBatch
	kindLookup     = "lookup"     // capture, cache, objmap.Map.Lookup per miss
)

// op is one operation of a round.
type op struct {
	kind  string
	app   string
	every uint64 // misses per sample, sampler operations only
}

func (o op) String() string {
	if o.kind == kindSample {
		return fmt.Sprintf("%s/%s/%d", o.kind, o.app, o.every)
	}
	return o.kind + "/" + o.app
}

// defaultBudgets are Table 1's per-app application instruction budgets
// (experiments.Options with Budget 0; mcf takes the 130M fallback).
var defaultBudgets = map[string]uint64{
	"tomcatv":  130_000_000,
	"mgrid":    130_000_000,
	"mcf":      130_000_000,
	"compress": 150_000_000,
}

// table1Interval is the fixed sampling interval Table1App uses at its
// defaults: 1 in 200 misses for the sparse-miss compress, 1 in 2,000
// otherwise.
func table1Interval(app string) uint64 {
	if app == "compress" {
		return 200
	}
	return 2_000
}

// sampleFrequencies are Figures 3 and 4's sampling intervals.
var sampleFrequencies = []uint64{1_000, 10_000, 100_000, 1_000_000}

// jitterSpan bounds the seed-derived budget offset: under 0.2% of every
// default budget, so seeds change the reference streams the checks see
// but not the amount of work measured.
const jitterSpan = 1 << 18

// spec is one workload's inputs for one seed.
type spec struct {
	name   string
	seed   int64
	apps   []string
	budget map[string]uint64
	round  []op
}

// workloadNames lists the workloads in the order BENCHMARK.json names them.
var workloadNames = []string{"table1", "sampling", "truth"}

// newSpec builds the named workload's inputs from the seed: the apps and
// their operations are fixed, and each app's budget is its default plus
// a seed-derived offset.
func newSpec(name string, seed int64) (*spec, error) {
	s := &spec{name: name, seed: seed, budget: map[string]uint64{}}
	switch name {
	case "table1":
		// A dense-miss stride code and the sparse-miss compress.
		s.apps = []string{"tomcatv", "compress"}
		for _, app := range s.apps {
			s.round = append(s.round, op{kind: kindCell, app: app})
		}
	case "sampling":
		// A stride code, the pointer-chasing mcf and compress, each with
		// its uninstrumented baseline and the four paper frequencies.
		s.apps = []string{"tomcatv", "mcf", "compress"}
		for _, app := range s.apps {
			s.round = append(s.round, op{kind: kindLive, app: app})
			for _, f := range sampleFrequencies {
				s.round = append(s.round, op{kind: kindSample, app: app, every: f})
			}
		}
	case "truth":
		// Ground truth through all three engines.
		s.apps = []string{"tomcatv", "mgrid", "mcf"}
		for _, app := range s.apps {
			s.round = append(s.round,
				op{kind: kindLive, app: app},
				op{kind: kindShard, app: app},
				op{kind: kindInterval, app: app})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	for _, app := range s.apps {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%s", seed, app)
		s.budget[app] = defaultBudgets[app] + h.Sum64()%jitterSpan
	}
	return s, nil
}
