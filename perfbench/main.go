// Command perfbench is membottle's end-to-end benchmark. It runs one
// named workload of simulation operations — Table 1 cells, Figure 3/4
// sampler runs, or ground truth through the three truth engines — for a
// given number of seconds, checks every operation's output against an
// independent reference model, and prints one JSON line of metrics.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it instead runs the traced pass and the isolating legs
// and prints the per-layer metrics; the spans go to a JSON file under
// --out. See README.md for the workloads, metrics and bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: table1, sampling or truth")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 20, "how long the timed passes run, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	s, err := newSpec(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	// The benchmark is sized for two CPUs; fixing GOMAXPROCS keeps the
	// work the same on larger hosts.
	runtime.GOMAXPROCS(workers)

	var res result
	if *trace == 1 {
		res, err = measureTraced(s, *out, stderr)
	} else {
		res, err = measure(s, *seconds, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// pass is one round of a workload's operations.
type pass struct {
	outs    []outcome
	cpu     float64
	wall    float64
	heapMiB float64
	insts   uint64
}

// timeOp runs one operation from a collected heap and times it.
func timeOp(s *spec, o op) outcome {
	runtime.GC()
	h := startHeapSampler()
	w := startWatch()
	out := execute(o, s.budget[o.app], s.seed)
	out.CPU, out.Wall = w.elapsed()
	out.HeapMiB = h.finish()
	return out
}

// runPass runs one round. With a recorder, each operation gets a span.
func runPass(s *spec, rec *recorder) pass {
	var p pass
	end := rec.begin("pass/" + s.name)
	defer end()
	for _, o := range s.round {
		endOp := rec.begin(o.String())
		out := timeOp(s, o)
		endOp()
		p.outs = append(p.outs, out)
		p.cpu += out.CPU
		p.wall += out.Wall
		p.heapMiB = max(p.heapMiB, out.HeapMiB)
		p.insts += out.AppInsts
	}
	return p
}

// checker tallies operations and failed checks against the models.
type checker struct {
	models    map[string]modelResult
	attempted int
	failed    int
	log       io.Writer
}

// buildModels runs the reference model for every app of the spec.
func buildModels(s *spec) (map[string]modelResult, error) {
	models := map[string]modelResult{}
	for _, app := range s.apps {
		m, err := runModel(app, s.budget[app])
		if err != nil {
			return nil, err
		}
		models[app] = m
	}
	return models, nil
}

// check checks outs, in round order, so that a shard operation meets the
// sequential run of its app that precedes it.
func (c *checker) check(outs []outcome) {
	seq := map[string]*outcome{}
	for i := range outs {
		o := &outs[i]
		for _, rc := range checkOutcome(*o, c.models[o.op.app], seq[o.op.app]) {
			c.attempted++
			if rc.err != nil {
				c.failed++
				fmt.Fprintf(c.log, "perfbench: FAILED %s: %v\n", rc.run, rc.err)
			}
		}
		if o.op.kind == kindLive {
			seq[o.op.app] = o
		}
	}
}

// setupReps is how many times the set-up step is repeated; its median
// is reported.
const setupReps = 21

// setupOnce builds and loads, for every simulation run of one round,
// the system that run starts from, profiler attached, and returns the
// CPU seconds taken. CPU time, unlike wall time, leaves out what a
// contended host steals from these sub-millisecond steps.
func setupOnce(s *spec) (float64, error) {
	w := startWatch()
	for _, o := range s.round {
		kinds := []string{o.kind}
		if o.kind == kindCell {
			kinds = []string{kindShard, kindSample, kindSearch}
		}
		for _, k := range kinds {
			if err := setupRun(k, o); err != nil {
				return 0, err
			}
		}
	}
	cpu, _ := w.elapsed()
	return cpu, nil
}

func measure(s *spec, seconds float64, log io.Writer) (result, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t, err := setupOnce(s)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, t)
	}
	models, err := buildModels(s)
	if err != nil {
		return result{}, err
	}
	c := &checker{models: models, log: log}

	var cpu, wall, heap, rate []float64
	start := time.Now()
	for {
		p := runPass(s, nil)
		c.check(p.outs)
		cpu = append(cpu, p.cpu)
		wall = append(wall, p.wall)
		heap = append(heap, p.heapMiB)
		rate = append(rate, float64(p.insts)/1e6/p.cpu)
		// Stop before a pass that would end past the run length.
		el := time.Since(start).Seconds()
		if el+el/float64(len(cpu)) > seconds {
			break
		}
	}
	fmt.Fprintf(log, "perfbench: %s seed %d: %d passes, cpu_s %v\n", s.name, s.seed, len(cpu), cpu)
	return result{
		Correct:   c.failed == 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics: map[string]metric{
			"cpu_s":                {median(cpu), "s"},
			"wall_s":               {median(wall), "s"},
			"sim_minsts_per_cpu_s": {median(rate), "Minst/s"},
			"peak_heap_mib":        {median(heap), "MiB"},
			"setup_s":              {median(setups), "s"},
		},
	}, nil
}
