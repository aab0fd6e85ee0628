// Package machine implements the virtual processor of the paper's
// simulation study. Load and store instructions are fed through the
// simulated cache (the role ATOM instrumentation plays in the paper), a
// virtual cycle counter models execution time without pipeline detail
// ("the cycle counts ... are meant to model RISC processors in general"),
// and the performance-monitor unit can raise interrupts that run
// instrumentation handlers *inside* the simulation, so their cost and
// cache perturbation are observable.
package machine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"membottle/internal/cache"
	"membottle/internal/hotbuf"
	"membottle/internal/mem"
	"membottle/internal/obs"
	"membottle/internal/pmu"
)

// CostModel holds the virtual-cycle charges for the simulated processor.
type CostModel struct {
	// HitCycles is charged for every memory reference (the base cost of
	// the load/store instruction itself).
	HitCycles uint64
	// MissCycles is charged additionally when a reference misses.
	MissCycles uint64
	// ComputeCPI is the cycles charged per non-memory instruction.
	ComputeCPI uint64
	// InterruptCycles is the operating-system cost of delivering one
	// interrupt signal to the instrumentation. The paper measured
	// approximately 50 microseconds (8,800 cycles) per interrupt on a
	// 175 MHz SGI Octane under Irix.
	InterruptCycles uint64
	// MallocCycles approximates the library cost of one allocation call.
	MallocCycles uint64
}

// DefaultCosts mirrors the paper's setup: a generic RISC processor with
// the Octane-derived interrupt delivery cost.
func DefaultCosts() CostModel {
	return CostModel{
		HitCycles:       2,
		MissCycles:      70,
		ComputeCPI:      1,
		InterruptCycles: 8800,
		MallocCycles:    100,
	}
}

// Workload is a simulated application: it declares its memory objects in
// Setup and issues references in bounded Step chunks until the machine's
// instruction budget expires.
type Workload interface {
	// Name identifies the workload (e.g. "tomcatv").
	Name() string
	// Setup defines globals and performs initial allocations.
	Setup(m *Machine)
	// Step executes one bounded chunk (for example, one sweep of one
	// array). The machine calls Step repeatedly until the application
	// instruction budget is exhausted, so workloads must be cyclic.
	Step(m *Machine)
}

// Machine is one simulated processor executing one workload.
type Machine struct {
	Space *mem.Space
	Cache *cache.Cache
	PMU   *pmu.PMU
	Cost  CostModel

	// Cycles is the virtual cycle counter (application + instrumentation).
	Cycles uint64
	// Insts counts all simulated instructions.
	Insts uint64
	// AppInsts counts only application instructions; runs are compared at
	// equal AppInsts, as in the paper ("the applications were allowed to
	// execute for the same number of application instructions").
	AppInsts uint64
	// HandlerCycles is the portion of Cycles spent delivering and running
	// interrupt handlers.
	HandlerCycles uint64
	// Interrupts counts delivered interrupts.
	Interrupts uint64

	// MissHandler runs on miss-overflow interrupts (sampling).
	MissHandler func(*Machine)
	// TimerHandler runs on cycle-timer interrupts (n-way search).
	TimerHandler func(*Machine)
	// OnMiss, if set, observes every cache miss with exact (uncharged)
	// cost; the experiment harnesses use it for ground-truth accounting.
	OnMiss func(a mem.Addr, write bool, inHandler bool)
	// OnRef, if set, observes every application memory reference (not
	// instrumentation-handler references) at zero simulated cost. Used by
	// the trace recorder. Setting it disables the batched fast path (the
	// recorder needs per-reference instruction counts), so recording runs
	// at scalar speed.
	OnRef func(a mem.Addr, write bool)
	// OnAccess, if set, observes every reference — application and
	// instrumentation-handler alike — with its hit/miss outcome, at zero
	// simulated cost. The invariant sanitizer uses it to feed a shadow
	// cache model. Like OnRef, setting it disables the batched fast path;
	// when nil the hot path is untouched.
	OnAccess func(a mem.Addr, write, miss, inHandler bool)
	// Invariants, if set, is called at every interrupt boundary (after
	// each delivered handler returns). A non-nil result stops the run:
	// RunContext returns the error, plain Run panics with it.
	Invariants func(*Machine) error
	// OnStep, if set, is called after every completed workload Step in
	// Run/RunContext. It exists for progress reporting; it must not
	// mutate simulation state (it runs outside the simulated clock).
	OnStep func(*Machine)

	// Obs, if set, receives passive instrumentation: interrupt counts and
	// latencies, per-window reference/miss totals, and trace events. All
	// recording reads simulation state without changing it, so runs with
	// and without Obs are bit-identical; the batched hot path pays exactly
	// one nil check per AccessBatch call.
	Obs *obs.Obs

	// StopCycles, if non-zero, makes RunContext stop cleanly at the first
	// workload Step boundary where Cycles >= StopCycles, returning a
	// CancelledError with Clean set. Because Step overshoot is
	// deterministic, stopping at a cycle deadline is reproducible —
	// the basis of the checkpoint/resume byte-identity tests.
	StopCycles uint64

	// Scalar disables the batched reference fast path, forcing every
	// AccessBatch / LoadRange / StoreRange call through the per-reference
	// scalar loop. Batched and scalar execution are bit-identical (the
	// differential oracle tests enforce it); scalar mode exists as the
	// trusted baseline for those tests and for benchmarking the speedup.
	Scalar bool

	inHandler bool
	// batchPool leases the range helpers' staging buffers. Interrupt
	// handlers delivered mid-batch may themselves call the range helpers,
	// so rangeRefs leases one buffer per nesting level; the pool retains
	// every level's buffer after first use, so the steady state — any
	// nesting depth already visited once — allocates nothing.
	batchPool *hotbuf.Pool[mem.Ref]

	// Capture mode (see capture.go): when capturing is set every
	// reference bypasses the cache and flows to a sink instead — either
	// the per-reference RefSink (capture) or the run-compacting RunSink
	// (runSink); the two are mutually exclusive. capBuf stages scalar
	// references for the RefSink so trailing Compute calls can fold into
	// their payloads, and capCyc0 is the cycle count before capBuf[0].
	// The run* fields hold the RunSink's pending same-line run, its entry
	// buffer, and the delivery-span tallies (see captureRunBatch).
	capturing bool
	capture   RefSink
	capBuf    []Ref
	capCyc0   uint64

	runSink      RunSink
	runBuf       []uint64
	runShift     uint
	runLastLine  uint64
	runPendAddr  mem.Addr
	runPendCnt   int
	runPendWr    uint64
	runBufRefs   uint64
	runBufWrites uint64
	runCyc0      uint64

	// obsWinRefs/obsWinMisses mark the cache stats at the previous
	// interrupt delivery, so deliver() can record per-window totals.
	// Observational only: deliberately excluded from State so checkpoints
	// stay byte-identical with and without Obs attached.
	obsWinRefs   uint64
	obsWinMisses uint64

	// Supervision state: runCtx is non-nil only inside RunContext;
	// stopErr, once set, freezes the machine (references and compute
	// become no-ops) until the run loop observes it.
	runCtx  context.Context
	stopErr error
	pollIn  int // references until the next context poll
}

// New assembles a machine from its parts.
func New(space *mem.Space, c *cache.Cache, p *pmu.PMU, cost CostModel) *Machine {
	return &Machine{Space: space, Cache: c, PMU: p, Cost: cost}
}

// InHandler reports whether the machine is currently executing
// instrumentation handler code.
func (m *Machine) InHandler() bool { return m.inHandler }

// Load simulates a read of address a.
func (m *Machine) Load(a mem.Addr) { m.access(a, false) }

// Store simulates a write of address a.
func (m *Machine) Store(a mem.Addr) { m.access(a, true) }

func (m *Machine) access(a mem.Addr, write bool) {
	if m.capturing {
		m.captureRef(a, write)
		return
	}
	if m.stopErr != nil {
		return
	}
	m.Insts++
	if !m.inHandler {
		m.AppInsts++
		if m.OnRef != nil {
			m.OnRef(a, write) //mb:ignore hp-call-opaque test/experiment hook, nil on measured runs
		}
	}
	m.Cycles += m.Cost.HitCycles
	miss := m.Cache.Access(a, write)
	if miss {
		m.Cycles += m.Cost.MissCycles
		if m.OnMiss != nil {
			m.OnMiss(a, write, m.inHandler) //mb:ignore hp-call-opaque test/experiment hook, nil on measured runs
		}
		m.PMU.RecordMiss(a)
	}
	if m.OnAccess != nil {
		m.OnAccess(a, write, miss, m.inHandler) //mb:ignore hp-call-opaque test/experiment hook, nil on measured runs
	}
	m.PMU.TickCycles(m.Cycles)
	if !m.inHandler && m.PMU.HasPending() {
		m.deliver()
	}
	if m.runCtx != nil {
		if m.pollIn--; m.pollIn <= 0 {
			m.pollCtx()
		}
	}
}

// Compute simulates n non-memory instructions.
func (m *Machine) Compute(n uint64) {
	if m.stopErr != nil {
		return
	}
	m.Insts += n
	if !m.inHandler {
		m.AppInsts += n
	}
	m.Cycles += n * m.Cost.ComputeCPI
	if m.capturing {
		// Fold into the pending reference's payload so the RefSink sees
		// the same Ref stream an AccessBatch caller would have produced
		// (run-compacted capture carries no compute payloads, and capBuf
		// stays empty there); the clock and instruction counters were
		// already charged above.
		if len(m.capBuf) > 0 {
			m.capBuf[len(m.capBuf)-1].Compute += n
		}
		return
	}
	m.PMU.TickCycles(m.Cycles)
	if !m.inHandler && m.PMU.HasPending() {
		m.deliver()
	}
}

// deliver drains pending interrupts, charging the OS delivery cost and the
// handler's own execution (memory references and compute) to the virtual
// clock. Handler references go through the cache, perturbing it exactly as
// the paper's Figure 3 measures.
//
//mb:coldpath interrupt delivery runs once per PMU overflow, not per reference
func (m *Machine) deliver() {
	for {
		kind := m.PMU.Pending()
		if kind == pmu.IrqNone {
			return
		}
		m.Interrupts++
		start := m.Cycles
		m.Cycles += m.Cost.InterruptCycles
		m.PMU.TickCycles(m.Cycles)
		m.inHandler = true
		switch kind {
		case pmu.IrqMissOverflow:
			if m.MissHandler != nil {
				m.MissHandler(m)
			}
		case pmu.IrqTimer:
			if m.TimerHandler != nil {
				m.TimerHandler(m)
			}
		}
		m.inHandler = false
		m.HandlerCycles += m.Cycles - start
		if o := m.Obs; o != nil {
			o.Interrupts.Inc()
			if kind == pmu.IrqMissOverflow {
				o.MissIrqs.Inc()
			} else {
				o.TimerIrqs.Inc()
			}
			lat := m.Cycles - start
			o.IrqLatency.Observe(lat)
			st := m.Cache.Stats
			refs, misses := st.Accesses(), st.Misses
			o.WindowRefs.Observe(refs - m.obsWinRefs)
			o.WindowMisses.Observe(misses - m.obsWinMisses)
			m.obsWinRefs, m.obsWinMisses = refs, misses
			o.Emit(obs.Event{Cycle: start, Kind: obs.EvInterrupt, A: uint64(kind), B: lat, Note: kind.String()})
		}
		if m.Invariants != nil {
			if err := m.Invariants(m); err != nil {
				m.stop(err)
				return
			}
		}
		if m.runCtx != nil {
			m.pollCtx()
		}
		if m.stopErr != nil {
			return
		}
	}
}

// Malloc allocates a simulated heap block, charging the library cost.
func (m *Machine) Malloc(size uint64) (mem.Addr, error) {
	m.Compute(m.Cost.MallocCycles)
	return m.Space.Malloc(size)
}

// MustMalloc is Malloc for setup code.
func (m *Machine) MustMalloc(size uint64) mem.Addr {
	a, err := m.Malloc(size)
	if err != nil {
		panic(err)
	}
	return a
}

// Free releases a simulated heap block.
func (m *Machine) Free(a mem.Addr) error {
	m.Compute(m.Cost.MallocCycles)
	return m.Space.Free(a)
}

// PushFrame simulates a function-call prologue: a stack frame of the
// given size is allocated for fn (stack-variable support, the paper's §5
// future work).
func (m *Machine) PushFrame(fn string, size uint64) (mem.Addr, error) {
	m.Compute(8)
	return m.Space.PushFrame(fn, size)
}

// PopFrame simulates the matching epilogue.
func (m *Machine) PopFrame() error {
	m.Compute(4)
	return m.Space.PopFrame()
}

// Run executes the workload until at least appInstBudget application
// instructions have been simulated. Setup must have been called first.
// The overshoot past the budget is bounded by one Step and is identical
// across instrumented and uninstrumented runs of the same workload, since
// handlers never change the application's instruction stream.
//
// Run has no error return; if an Invariants hook fails, Run panics with
// the error. Supervised callers use RunContext instead.
func (m *Machine) Run(w Workload, appInstBudget uint64) {
	for m.AppInsts < appInstBudget {
		w.Step(m)
		if m.stopErr != nil {
			err := m.stopErr
			m.stopErr = nil
			panic(err)
		}
		if m.OnStep != nil {
			m.OnStep(m)
		}
	}
}

// --- supervised execution ------------------------------------------------

// ErrCancelled is the sentinel matched (via errors.Is) by every
// CancelledError.
var ErrCancelled = errors.New("machine: run cancelled")

// CancelledError reports a run stopped before its budget, carrying the
// progress made so that partial results stay reportable.
type CancelledError struct {
	// Cycles and AppInsts are the machine's counters at the stop point.
	Cycles   uint64
	AppInsts uint64
	// Clean is true when the stop landed on a workload Step boundary,
	// where machine and workload state are mutually consistent — the only
	// points at which a checkpoint can be taken.
	Clean bool
	// Cause is the context error for context cancellations, nil for
	// StopCycles deadline stops.
	Cause error
}

func (e *CancelledError) Error() string {
	how := "mid-step"
	if e.Clean {
		how = "at step boundary"
	}
	return fmt.Sprintf("machine: run cancelled %s after %d cycles (%d app instructions): %v",
		how, e.Cycles, e.AppInsts, e.Cause)
}

// Unwrap exposes the context error, if any.
func (e *CancelledError) Unwrap() error { return e.Cause }

// Is matches the ErrCancelled sentinel.
func (e *CancelledError) Is(target error) bool { return target == ErrCancelled }

// ctxPollEvery is how many references may pass between context polls.
// Cancellation latency is bounded by this many simulated references plus
// one workload Step; polling never touches simulation state, so it cannot
// perturb determinism.
const ctxPollEvery = 256

// RunContext is Run under supervision: the context is polled at workload
// Step boundaries, every ctxPollEvery references, and after every
// delivered interrupt. On cancellation it returns a *CancelledError
// (matching ErrCancelled) recording the progress made; mid-step
// cancellations freeze the machine and drain the rest of the Step at zero
// cost, so counters reflect the stop point exactly. If StopCycles is set,
// the run instead stops cleanly at the first Step boundary at or past
// that cycle count. Invariants failures surface as the hook's error.
func (m *Machine) RunContext(ctx context.Context, w Workload, appInstBudget uint64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	m.runCtx = ctx
	m.pollIn = ctxPollEvery
	defer func() { m.runCtx = nil }()
	for m.AppInsts < appInstBudget {
		if err := context.Cause(ctx); err != nil {
			return &CancelledError{Cycles: m.Cycles, AppInsts: m.AppInsts, Clean: true, Cause: err}
		}
		if m.StopCycles != 0 && m.Cycles >= m.StopCycles {
			return &CancelledError{Cycles: m.Cycles, AppInsts: m.AppInsts, Clean: true}
		}
		w.Step(m)
		if m.stopErr != nil {
			err := m.stopErr
			m.stopErr = nil
			return err
		}
		if m.OnStep != nil {
			m.OnStep(m)
		}
	}
	return nil
}

// stop freezes the machine on its first failure; later failures are
// discarded (the first one is the root cause).
func (m *Machine) stop(err error) {
	if m.stopErr == nil {
		m.stopErr = err
	}
}

// pollCtx performs a non-blocking context check and resets the poll
// countdown.
//
//mb:coldpath runs once per ctxPollEvery references; allocates only on the terminal cancel path
func (m *Machine) pollCtx() {
	m.pollIn = ctxPollEvery
	if m.stopErr != nil {
		return
	}
	select {
	case <-m.runCtx.Done():
		m.stop(&CancelledError{Cycles: m.Cycles, AppInsts: m.AppInsts, Cause: context.Cause(m.runCtx)})
	default:
	}
}

// --- batched hot path ----------------------------------------------------

// Ref is one reference in a batch; see mem.Ref.
type Ref = mem.Ref

// batchChunk bounds the reusable batch buffer used by the range helpers.
const batchChunk = 1024

// AccessBatch issues a batch of consecutive references, each optionally
// followed by its Compute payload of compute instructions. It simulates
// exactly the scalar sequence
//
//	for _, r := range refs { Load/Store(r.Addr); Compute(r.Compute) }
//
// but runs hit stretches (and the fill of the first missing line) through
// the cache's branch-light AccessBatch, falling back to the scalar slow
// path only for per-miss bookkeeping and at PMU cycle events (timer
// deadlines, timeshare rotations), so interrupt delivery points, cycle
// counts, and cache state stay bit-identical to scalar execution.
//
//mb:hotpath machine half of the batched engine; one obs nil check per batch
func (m *Machine) AccessBatch(refs []Ref) {
	if m.capturing {
		m.captureBatch(refs)
		return
	}
	if m.Scalar || m.OnRef != nil || m.OnAccess != nil {
		m.scalarRefs(refs)
		return
	}
	// The single per-batch observability probe: one nil check when Obs is
	// off (the overhead-guard benchmark enforces this stays cheap).
	if o := m.Obs; o != nil {
		o.Batches.Inc()
		o.BatchRefs.Add(uint64(len(refs)))
	}
	// remCompute is the Compute payload of the refs not yet consumed,
	// summed when a cycle event is first seen armed and spent as refs are
	// consumed, so the event cap below costs O(1) per pass unless the
	// event can fall inside the remaining batch. math.MaxUint64 stands
	// for unknown: not summed yet, or too large to count.
	remCompute := uint64(math.MaxUint64)
	for len(refs) > 0 {
		if m.stopErr != nil {
			return
		}
		if m.runCtx != nil {
			// The fast path bypasses access(), so amortize the context
			// poll over the references consumed per iteration instead.
			if m.pollIn <= 0 {
				m.pollCtx()
			}
		}
		n := len(refs)
		tickAfter := false
		if ev, armed := m.PMU.NextCycleEvent(); armed {
			if remCompute == math.MaxUint64 {
				remCompute = sumCompute(refs)
			}
			if !eventBeyond(len(refs), remCompute, m.Cycles, ev, m.Cost) {
				n, tickAfter = capRefs(refs, m.Cycles, ev, m.Cost)
			}
			if n == 0 {
				// The event fires during the next reference: take the
				// scalar path so the tick lands mid-element, as it would
				// in an unbatched run.
				m.scalarRefs(refs[:1])
				remCompute = spendCompute(remCompute, refs[0].Compute)
				refs = refs[1:]
				continue
			}
		}
		done, compute, missed := m.Cache.AccessBatch(refs[:n])
		remCompute = spendCompute(remCompute, compute)
		if done > 0 {
			insts := uint64(done) + compute
			m.Insts += insts
			if !m.inHandler {
				m.AppInsts += insts
			}
			m.Cycles += uint64(done)*m.Cost.HitCycles + compute*m.Cost.ComputeCPI
			if m.runCtx != nil {
				m.pollIn -= done
			}
		}
		if missed {
			// refs[done-1] missed; the cache already filled the line, so
			// only the machine-side slow path remains: miss latency, miss
			// attribution, PMU bookkeeping, interrupt delivery, and the
			// reference's trailing compute (charged after any interrupt,
			// as in scalar execution).
			r := &refs[done-1]
			remCompute = spendCompute(remCompute, r.Compute)
			m.Cycles += m.Cost.MissCycles
			if m.OnMiss != nil {
				m.OnMiss(r.Addr, r.Write, m.inHandler) //mb:ignore hp-call-opaque test/experiment hook, nil on measured runs
			}
			m.PMU.RecordMiss(r.Addr)
			m.PMU.TickCycles(m.Cycles)
			if !m.inHandler && m.PMU.HasPending() {
				m.deliver()
			}
			if r.Compute > 0 {
				m.Compute(r.Compute)
			}
			refs = refs[done:]
			continue
		}
		refs = refs[n:]
		if tickAfter {
			// The batch was cut at a reference whose trailing compute
			// crosses the PMU event; tick with exactly the cycle count a
			// scalar Compute call would have reported.
			m.PMU.TickCycles(m.Cycles)
			if !m.inHandler && m.PMU.HasPending() {
				m.deliver()
			}
		}
	}
}

// scalarRefs issues refs one at a time through the scalar path.
func (m *Machine) scalarRefs(refs []Ref) {
	for i := range refs {
		m.access(refs[i].Addr, refs[i].Write)
		if refs[i].Compute > 0 {
			m.Compute(refs[i].Compute)
		}
	}
}

// capRefs bounds a batch so that no PMU cycle event falls inside the hit
// fast path, assuming every reference hits (misses end the batch earlier
// anyway). Scalar execution ticks the PMU after each reference and after
// each Compute call; all skipped ticks must be strictly before ev to be
// no-ops. If the event lands on a reference's access tick the reference
// is excluded (the caller runs it scalar); if it lands on the trailing
// compute tick the reference stays in the batch and the caller ticks at
// the batch boundary, which is the identical observation point.
func capRefs(refs []Ref, cycles, ev uint64, cost CostModel) (int, bool) {
	if ev <= cycles {
		return 0, false
	}
	for i := range refs {
		cycles += cost.HitCycles
		if cycles >= ev {
			return i, false
		}
		if c := refs[i].Compute; c > 0 {
			cycles += c * cost.ComputeCPI
			if cycles >= ev {
				return i + 1, true
			}
		}
	}
	return len(refs), false
}

// sumCompute totals the batch's Compute payloads, saturating at
// math.MaxUint64 so an overflowing sum keeps every bound it feeds
// conservative.
func sumCompute(refs []Ref) uint64 {
	var sum, carry uint64
	for i := range refs {
		sum, carry = bits.Add64(sum, refs[i].Compute, 0)
		if carry != 0 {
			return math.MaxUint64
		}
	}
	return sum
}

// spendCompute removes a consumed payload from a sumCompute total. An
// unknown (saturated) total stays unknown.
func spendCompute(rem, c uint64) uint64 {
	if rem == math.MaxUint64 {
		return rem
	}
	return rem - c
}

// eventBeyond reports whether the cycle event ev lies past the most
// cycles n references carrying remCompute compute instructions could
// use, all hitting. capRefs would then return (n, false) without
// firing, so the caller may skip its scan. A due event or any overflow
// in the bound reports false, which falls back to the exact scan.
func eventBeyond(n int, remCompute, cycles, ev uint64, cost CostModel) bool {
	if ev <= cycles {
		return false
	}
	hi, access := bits.Mul64(uint64(n), cost.HitCycles)
	if hi != 0 {
		return false
	}
	hi, work := bits.Mul64(remCompute, cost.ComputeCPI)
	if hi != 0 {
		return false
	}
	most, carry := bits.Add64(access, work, 0)
	if carry != 0 {
		return false
	}
	return ev-cycles > most
}

// leaseBatch leases a staging buffer for one rangeRefs invocation. The
// pool is built lazily so machines that never batch (capture mode,
// scalar differential baselines) pay nothing for it.
func (m *Machine) leaseBatch() []Ref {
	if m.batchPool == nil {
		m.batchPool = hotbuf.NewPool[mem.Ref](batchChunk, 0)
	}
	return m.batchPool.Lease()
}

// LoadRange streams reads over [base, base+bytes) with the given stride,
// a helper for array-sweep workload kernels. computePer is the number of
// compute instructions charged per element.
func (m *Machine) LoadRange(base mem.Addr, bytes, stride, computePer uint64) {
	m.rangeRefs(base, bytes, stride, computePer, false)
}

// StoreRange streams writes over [base, base+bytes) with the given stride.
func (m *Machine) StoreRange(base mem.Addr, bytes, stride, computePer uint64) {
	m.rangeRefs(base, bytes, stride, computePer, true)
}

func (m *Machine) rangeRefs(base mem.Addr, bytes, stride, computePer uint64, write bool) {
	if m.Scalar || m.OnRef != nil || m.OnAccess != nil {
		for off := uint64(0); off < bytes; off += stride {
			m.access(base+mem.Addr(off), write)
			if computePer > 0 {
				m.Compute(computePer)
			}
		}
		return
	}
	if m.runSink != nil {
		// Run-compacted capture never needs the materialized Ref slice:
		// the strided range folds straight into packed run entries.
		m.captureRunRange(base, bytes, stride, computePer, write)
		return
	}
	buf := m.leaseBatch()
	for off := uint64(0); off < bytes; off += stride {
		buf = append(buf, Ref{Addr: base + mem.Addr(off), Write: write, Compute: computePer})
		if len(buf) == cap(buf) {
			m.AccessBatch(buf)
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		m.AccessBatch(buf)
	}
	m.batchPool.Return(buf)
}

// --- checkpoint state ----------------------------------------------------

// State is the machine's own serializable snapshot (its counters; the
// cache, PMU, and address-space components snapshot themselves).
type State struct {
	Cycles        uint64
	Insts         uint64
	AppInsts      uint64
	HandlerCycles uint64
	Interrupts    uint64
}

// State captures the machine's counters. It is only meaningful at a
// workload Step boundary outside any handler (Run/RunContext guarantee
// this between Steps).
func (m *Machine) State() State {
	return State{
		Cycles:        m.Cycles,
		Insts:         m.Insts,
		AppInsts:      m.AppInsts,
		HandlerCycles: m.HandlerCycles,
		Interrupts:    m.Interrupts,
	}
}

// SetState restores counters captured by State.
func (m *Machine) SetState(s State) {
	m.Cycles = s.Cycles
	m.Insts = s.Insts
	m.AppInsts = s.AppInsts
	m.HandlerCycles = s.HandlerCycles
	m.Interrupts = s.Interrupts
}

// Checkpointer is implemented by workloads and profilers whose private
// state (sweep cursors, sample tables, generator positions) must survive
// a checkpoint/resume round trip. Implementations must encode
// deterministically: the same state always yields the same bytes.
type Checkpointer interface {
	// CheckpointState serializes the implementation's private state.
	CheckpointState() ([]byte, error)
	// RestoreState restores state serialized by CheckpointState on a
	// freshly constructed (Setup-complete) instance.
	RestoreState(data []byte) error
}
