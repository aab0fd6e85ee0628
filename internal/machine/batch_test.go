package machine

import (
	"math"
	"slices"
	"strings"
	"testing"

	"membottle/internal/cache"
	"membottle/internal/mem"
	"membottle/internal/pmu"
)

// snapshot is the complete externally observable machine state compared by
// the batched-vs-scalar differential tests.
type snapshot struct {
	Cycles, Insts, AppInsts uint64
	HandlerCycles           uint64
	Interrupts              uint64
	CacheStats              cache.Stats
	Resident                int
	GlobalMisses            uint64
	MissIrqs, TimerIrqs     uint64
	Counter0, Counter1      uint64
	LastMissAddr            mem.Addr
}

func snap(m *Machine) snapshot {
	s := snapshot{
		Cycles:        m.Cycles,
		Insts:         m.Insts,
		AppInsts:      m.AppInsts,
		HandlerCycles: m.HandlerCycles,
		Interrupts:    m.Interrupts,
		CacheStats:    m.Cache.Stats,
		Resident:      m.Cache.Resident(),
		GlobalMisses:  m.PMU.GlobalMisses,
		MissIrqs:      m.PMU.MissIrqs,
		TimerIrqs:     m.PMU.TimerIrqs,
		LastMissAddr:  m.PMU.LastMissAddr,
	}
	if m.PMU.NumCounters() > 0 {
		s.Counter0 = m.PMU.ReadCounter(0)
	}
	if m.PMU.NumCounters() > 1 {
		s.Counter1 = m.PMU.ReadCounter(1)
	}
	return s
}

// diffRig builds two identical machines (one scalar, one batched), runs
// drive on both, and asserts the final states are identical. setup
// configures each machine (PMU programming, handlers) before driving.
func diffRig(t *testing.T, cfg cache.Config, counters int, setup func(m *Machine), drive func(m *Machine)) {
	t.Helper()
	run := func(scalar bool) snapshot {
		m := New(mem.NewSpace(), cache.New(cfg), pmu.New(counters), DefaultCosts())
		m.Scalar = scalar
		if setup != nil {
			setup(m)
		}
		drive(m)
		return snap(m)
	}
	s, b := run(true), run(false)
	if s != b {
		t.Fatalf("batched execution diverged from scalar:\nscalar:  %+v\nbatched: %+v", s, b)
	}
}

// smallCache forces frequent misses and evictions.
func smallCache() cache.Config { return cache.Config{Size: 16 << 10, LineSize: 64, Assoc: 2} }

// mixedRefs builds a deterministic pseudo-random batch mixing a small hot
// region (hits) with a large cold region (misses), writes, and irregular
// compute payloads.
func mixedRefs(n int, seed uint64) []Ref {
	s := seed | 1
	refs := make([]Ref, n)
	for i := range refs {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		r := Ref{}
		if s%4 == 0 {
			r.Addr = mem.Addr(0x100000 + (s>>8)%(1<<22)) // cold: mostly misses
		} else {
			r.Addr = mem.Addr(0x1000 + (s>>8)%(8<<10)) // hot: mostly hits
		}
		r.Write = s%3 == 0
		if s%5 == 0 {
			r.Compute = s % 97
		}
		refs[i] = r
	}
	return refs
}

func TestBatchMatchesScalarPlain(t *testing.T) {
	refs := mixedRefs(200_000, 42)
	diffRig(t, smallCache(), 0, nil, func(m *Machine) {
		m.AccessBatch(refs)
	})
}

func TestBatchMatchesScalarRanges(t *testing.T) {
	diffRig(t, smallCache(), 0, nil, func(m *Machine) {
		for i := 0; i < 40; i++ {
			m.LoadRange(0x10000, 64<<10, 8, 3)
			m.StoreRange(0x40000, 32<<10, 16, 0)
			m.LoadRange(0x1000, 4<<10, 8, 1) // resident: hit fast path
		}
	})
}

func TestBatchMatchesScalarWithMissInterrupts(t *testing.T) {
	refs := mixedRefs(150_000, 7)
	diffRig(t, smallCache(), 2,
		func(m *Machine) {
			m.PMU.SetRegion(0, 0x100000, 0x200000)
			m.PMU.SetRegion(1, 0x1000, 0x3000)
			m.PMU.SetMissInterrupt(500)
			m.MissHandler = func(m *Machine) {
				// Handler touches memory (perturbing the cache) and
				// computes, exactly as the profilers do.
				m.LoadRange(0xA_0000_0000, 1<<10, 64, 2)
				m.Compute(60)
			}
		},
		func(m *Machine) {
			m.AccessBatch(refs)
		})
}

func TestBatchMatchesScalarWithTimer(t *testing.T) {
	refs := mixedRefs(150_000, 99)
	diffRig(t, smallCache(), 1,
		func(m *Machine) {
			m.PMU.SetRegion(0, 0x1000, 0x4000)
			m.PMU.SetTimer(10_000)
			m.TimerHandler = func(m *Machine) {
				m.LoadRange(0xA_0000_0000, 512, 64, 1)
				// Rearm at an interval that lands the deadline at
				// arbitrary points inside batches.
				m.PMU.SetTimer(m.Cycles + 9_973)
			}
		},
		func(m *Machine) {
			m.AccessBatch(refs)
			m.Compute(1234)
			m.AccessBatch(refs[:1000])
		})
}

func TestBatchMatchesScalarWithTimesharing(t *testing.T) {
	refs := mixedRefs(120_000, 3)
	diffRig(t, smallCache(), 4,
		func(m *Machine) {
			m.PMU.EnableTimesharing(1, 5_000)
			m.PMU.SetRegion(0, 0x100000, 0x180000)
			m.PMU.SetRegion(1, 0x180000, 0x200000)
			m.PMU.SetRegion(2, 0x1000, 0x2000)
			m.PMU.SetRegion(3, 0x2000, 0x3000)
		},
		func(m *Machine) {
			m.AccessBatch(refs)
		})
}

func TestBatchMatchesScalarTruthHook(t *testing.T) {
	// OnMiss observers (ground truth) must see the same miss stream.
	refs := mixedRefs(100_000, 11)
	var scalarLog, batchLog []mem.Addr
	run := func(scalar bool, log *[]mem.Addr) snapshot {
		m := New(mem.NewSpace(), cache.New(smallCache()), pmu.New(0), DefaultCosts())
		m.Scalar = scalar
		m.OnMiss = func(a mem.Addr, write, inHandler bool) { *log = append(*log, a) }
		m.AccessBatch(refs)
		return snap(m)
	}
	s := run(true, &scalarLog)
	b := run(false, &batchLog)
	if s != b {
		t.Fatalf("state diverged:\nscalar:  %+v\nbatched: %+v", s, b)
	}
	if len(scalarLog) != len(batchLog) {
		t.Fatalf("miss streams differ in length: %d vs %d", len(scalarLog), len(batchLog))
	}
	for i := range scalarLog {
		if scalarLog[i] != batchLog[i] {
			t.Fatalf("miss %d differs: %#x vs %#x", i, uint64(scalarLog[i]), uint64(batchLog[i]))
		}
	}
}

func TestBatchOnRefFallsBackToScalar(t *testing.T) {
	// With an OnRef observer installed (trace recording), batches must
	// degrade to the scalar path and the observer must see every ref in
	// order.
	refs := mixedRefs(10_000, 5)
	m := New(mem.NewSpace(), cache.New(smallCache()), pmu.New(0), DefaultCosts())
	var seen []mem.Addr
	m.OnRef = func(a mem.Addr, write bool) { seen = append(seen, a) }
	m.AccessBatch(refs)
	if len(seen) != len(refs) {
		t.Fatalf("OnRef saw %d refs, want %d", len(seen), len(refs))
	}
	for i := range refs {
		if seen[i] != refs[i].Addr {
			t.Fatalf("ref %d: OnRef saw %#x, want %#x", i, uint64(seen[i]), uint64(refs[i].Addr))
		}
	}
}

func TestCapRefs(t *testing.T) {
	cost := CostModel{HitCycles: 2, ComputeCPI: 1}
	refs := []Ref{{Compute: 10}, {Compute: 10}, {Compute: 10}}
	// Per element: 2 access cycles then 10 compute cycles.
	cases := []struct {
		ev   uint64
		n    int
		tick bool
	}{
		{1, 0, false},   // already due
		{2, 0, false},   // fires on ref 0's access tick
		{3, 1, true},    // fires inside ref 0's compute
		{12, 1, true},   // fires exactly at ref 0's compute tick
		{13, 1, false},  // fires on ref 1's access tick (12+2 >= 13)
		{15, 2, true},   // inside ref 1's compute
		{100, 3, false}, // never fires in this batch
	}
	for _, c := range cases {
		n, tick := capRefs(refs, 0, c.ev, cost)
		if n != c.n || tick != c.tick {
			t.Errorf("capRefs(ev=%d) = (%d,%v), want (%d,%v)", c.ev, n, tick, c.n, c.tick)
		}
	}
}

// sweepStream is a miss-heavy reference stream: passes stride-8 sweeps
// over a 64 KiB array (four times smallCache), so every eighth reference
// misses. Each reference carries a nonzero Compute payload of 1 to 5,
// except that a sweep's last reference carries a 64Ki-instruction
// epilogue, more than all the sweep's other payloads together.
func sweepStream(passes int) []Ref {
	const base, bytes, stride = 0x100000, 64 << 10, 8
	refs := make([]Ref, 0, passes*bytes/stride)
	for p := 0; p < passes; p++ {
		for off := 0; off < bytes; off += stride {
			i := len(refs)
			refs = append(refs, Ref{Addr: mem.Addr(base + off), Write: i%3 == 0, Compute: uint64(1 + i%5)})
		}
		refs[len(refs)-1].Compute = 64 << 10
	}
	return refs
}

// accessTick returns the cycle count at which scalar execution of
// stream ticks the PMU for reference g's access, on a machine with no
// cycle event armed (so the same up to the first deadline of any run).
func accessTick(stream []Ref, g int) uint64 {
	m := New(mem.NewSpace(), cache.New(smallCache()), pmu.New(1), DefaultCosts())
	m.Scalar = true
	m.AccessBatch(stream[:g])
	m.access(stream[g].Addr, stream[g].Write)
	return m.Cycles
}

// TestBatchMatchesScalarTimerInMissHeavyBatches places timer deadlines
// at each kind of scalar observation point of one reference — its access
// tick (hit or miss), inside its trailing compute, and exactly on its
// compute tick — early and late in batches that each hold a thousand
// misses, then keeps rearming so later deadlines land anywhere. The
// firing cycles and the final machine state must match scalar execution.
func TestBatchMatchesScalarTimerInMissHeavyBatches(t *testing.T) {
	const batch = 8192 // one full sweep: 1,024 misses
	stream := sweepStream(6)
	if stream[2*batch].Compute == 0 {
		t.Fatal("stream needs nonzero compute payloads")
	}
	type place struct {
		name string
		g    int // reference index in stream
		// at derives the deadline, and the tick at which scalar execution
		// observes it, from the reference's access and compute ticks.
		at func(acc, comp uint64) (deadline, seen uint64)
	}
	var places []place
	for _, pos := range []struct {
		name string
		k    int
	}{{"early", 2400}, {"late", 8000}} {
		g := 2*batch + pos.k // third batch; the first two see the event far off
		places = append(places,
			place{pos.name + "/miss-access", g, func(acc, _ uint64) (uint64, uint64) { return acc, acc }},
			place{pos.name + "/hit-access", g + 3, func(acc, _ uint64) (uint64, uint64) { return acc, acc }},
			place{pos.name + "/inside-compute", g + 2, func(acc, comp uint64) (uint64, uint64) { return acc + comp/2, acc + comp }},
			place{pos.name + "/on-compute", g + 4, func(acc, comp uint64) (uint64, uint64) { return acc + comp, acc + comp }},
		)
	}
	cpi := DefaultCosts().ComputeCPI
	for _, p := range places {
		t.Run(p.name, func(t *testing.T) {
			r := stream[p.g]
			if strings.HasSuffix(p.name, "/miss-access") != (p.g%8 == 0) {
				t.Fatalf("reference %d is not the kind the case names", p.g)
			}
			if strings.HasSuffix(p.name, "/inside-compute") && r.Compute < 2 {
				t.Fatalf("reference %d has no compute interior", p.g)
			}
			ev, seen := p.at(accessTick(stream, p.g), r.Compute*cpi)
			var fired [][]uint64
			diffRig(t, smallCache(), 1,
				func(m *Machine) {
					fired = append(fired, nil)
					log := &fired[len(fired)-1]
					m.PMU.SetRegion(0, 0x100000, 0x108000)
					m.PMU.SetTimer(ev)
					m.TimerHandler = func(m *Machine) {
						// The tick that raised the interrupt, before delivery's charge.
						*log = append(*log, m.Cycles-m.Cost.InterruptCycles)
						m.LoadRange(0xA_0000_0000, 512, 64, 1)
						m.PMU.SetTimer(m.Cycles + 7_919)
					}
				},
				func(m *Machine) {
					for b := 0; b < len(stream); b += batch {
						m.AccessBatch(stream[b : b+batch])
					}
				})
			if len(fired[0]) < 2 {
				t.Fatalf("timer fired %d times, want the placed deadline and rearms", len(fired[0]))
			}
			if !slices.Equal(fired[0], fired[1]) {
				t.Fatalf("timer fired at different cycles:\nscalar:  %v\nbatched: %v", fired[0], fired[1])
			}
			if first := fired[0][0]; first != seen {
				t.Fatalf("deadline %d observed at cycle %d, want %d", ev, first, seen)
			}
		})
	}
}

// TestBatchMatchesScalarTimerOnBatchEnd takes an interrupt on a
// reference's access tick inside a miss-heavy batch, then rearms the
// timer for the batch's last tick: the compute tick of its final
// reference, which carries a long epilogue. There the event cap's
// precheck bound is tight to the cycle, so it holds only if the batch's
// remaining compute was tracked exactly through every miss and the
// scalar step.
func TestBatchMatchesScalarTimerOnBatchEnd(t *testing.T) {
	const batch = 8192
	stream := sweepStream(4)
	g := 2*batch + 2403 // a hit in the third batch
	if g%8 == 0 {
		t.Fatal("reference must hit")
	}
	first := accessTick(stream, g)
	drive := func(m *Machine, batches int) {
		for b := 0; b < batches*batch; b += batch {
			m.AccessBatch(stream[b : b+batch])
		}
	}
	// setup arms the first deadline; its handler rearms for end, or
	// disarms when end is 0, and later ones keep rearming.
	setup := func(log *[]uint64, end uint64) func(m *Machine) {
		return func(m *Machine) {
			m.PMU.SetRegion(0, 0x100000, 0x108000)
			m.PMU.SetTimer(first)
			m.TimerHandler = func(m *Machine) {
				*log = append(*log, m.Cycles-m.Cost.InterruptCycles)
				m.LoadRange(0xA_0000_0000, 512, 64, 1)
				switch {
				case len(*log) == 1:
					m.PMU.SetTimer(end)
				case end != 0:
					m.PMU.SetTimer(m.Cycles + 7_919)
				}
			}
		}
	}
	// The third batch's last tick, on a scalar run that disarms after
	// the first interrupt.
	var probe []uint64
	m := New(mem.NewSpace(), cache.New(smallCache()), pmu.New(1), DefaultCosts())
	m.Scalar = true
	setup(&probe, 0)(m)
	drive(m, 3)
	end := m.Cycles

	var fired [][]uint64
	diffRig(t, smallCache(), 1,
		func(m *Machine) {
			fired = append(fired, nil)
			setup(&fired[len(fired)-1], end)(m)
		},
		func(m *Machine) { drive(m, 4) })
	if !slices.Equal(fired[0], fired[1]) {
		t.Fatalf("timer fired at different cycles:\nscalar:  %v\nbatched: %v", fired[0], fired[1])
	}
	if len(fired[0]) < 3 || fired[0][0] != first || fired[0][1] != end {
		t.Fatalf("timer fired at %v, want %d then the batch end %d, then rearms", fired[0], first, end)
	}
}

// TestBatchMatchesScalarShortQuantum rotates the timeshared counters on
// a quantum far shorter than one miss-heavy batch, so a rotation falls
// inside every batch many times over.
func TestBatchMatchesScalarShortQuantum(t *testing.T) {
	stream := sweepStream(4)
	diffRig(t, smallCache(), 4,
		func(m *Machine) {
			m.PMU.EnableTimesharing(1, 300)
			m.PMU.SetRegion(0, 0x100000, 0x104000)
			m.PMU.SetRegion(1, 0x104000, 0x108000)
			m.PMU.SetRegion(2, 0x108000, 0x10C000)
			m.PMU.SetRegion(3, 0x10C000, 0x110000)
		},
		func(m *Machine) {
			for b := 0; b < len(stream); b += 4096 {
				m.AccessBatch(stream[b : b+4096])
			}
		})
}

func TestEventBeyond(t *testing.T) {
	cost := CostModel{HitCycles: 2, ComputeCPI: 1}
	huge := []Ref{{Compute: math.MaxUint64 - 1}, {Compute: 5}}
	cases := []struct {
		name            string
		n               int
		rem, cycles, ev uint64
		cost            CostModel
		want            bool
	}{
		{"due", 3, 30, 10, 10, cost, false},
		{"overdue", 3, 30, 10, 4, cost, false},
		{"at the bound", 3, 30, 0, 36, cost, false},
		{"past the bound", 3, 30, 0, 37, cost, true},
		{"past the bound, offset", 3, 30, 1000, 1037, cost, true},
		{"saturated compute", 2, sumCompute(huge), 0, math.MaxUint64, cost, false},
		{"compute times CPI overflows", 1, math.MaxUint64 / 2, 0, math.MaxUint64, CostModel{HitCycles: 2, ComputeCPI: 3}, false},
		{"len times HitCycles overflows", math.MaxInt, 0, 0, math.MaxUint64, CostModel{HitCycles: 4, ComputeCPI: 1}, false},
		{"sum overflows", 1 << 20, math.MaxUint64 - 1<<20, 0, math.MaxUint64, cost, false},
		{"free compute", 3, math.MaxUint64, 0, 7, CostModel{HitCycles: 2}, true},
	}
	for _, c := range cases {
		if got := eventBeyond(c.n, c.rem, c.cycles, c.ev, c.cost); got != c.want {
			t.Errorf("%s: eventBeyond(n=%d, rem=%d, cycles=%d, ev=%d) = %v, want %v",
				c.name, c.n, c.rem, c.cycles, c.ev, got, c.want)
		}
	}
	if got := sumCompute(huge); got != math.MaxUint64 {
		t.Errorf("sumCompute of an overflowing batch = %d, want saturation", got)
	}
	if got := spendCompute(math.MaxUint64, 5); got != math.MaxUint64 {
		t.Errorf("spendCompute drained a saturated total to %d", got)
	}
}

// TestEventBeyondIsSound checks the precheck against the exact scan: it
// may only skip capRefs where capRefs would return the whole batch with
// no trailing tick.
func TestEventBeyondIsSound(t *testing.T) {
	cost := DefaultCosts()
	refs := mixedRefs(64, 13)
	skipped := 0
	for n := 0; n <= len(refs); n += 7 {
		rem := sumCompute(refs[:n])
		for ev := uint64(0); ev < 2*uint64(n)*cost.HitCycles+rem*cost.ComputeCPI+8; ev++ {
			if !eventBeyond(n, rem, 3, ev, cost) {
				continue
			}
			skipped++
			if k, tick := capRefs(refs[:n], 3, ev, cost); k != n || tick {
				t.Fatalf("n=%d ev=%d: precheck skipped a scan that returns (%d,%v)", n, ev, k, tick)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("precheck never skipped")
	}
}
