package workload

import (
	"membottle/internal/machine"
	"membottle/internal/mem"
)

// SPEC2000-style extension workloads. The paper's §5 plans "to expand the
// tested applications to include at least a set taken from the SPEC2000
// benchmark suite", with emphasis on "applications that make extensive
// use of dynamically allocated memory". These three recreations cover the
// access-pattern families the paper's seven lack: pointer chasing over
// dynamic data (mcf), neuron/weight streaming (art), and index-driven
// gather (equake). They are not part of the paper's tables; tests assert
// their qualitative behaviour only.

// Mcf recreates 181.mcf, the network-simplex minimum-cost-flow solver —
// the canonical pointer-chasing, heap-dominated SPEC2000 code. Arcs and
// nodes live in allocation arenas (the paper's §5 grouped-allocation
// idea), so both techniques attribute misses to the "arcs" and "nodes"
// sites as units; a pseudo-random dependent walk over the arcs defeats
// all locality.
type Mcf struct {
	arcs, nodes *mem.Arena
	basket      mem.Addr
	cursor      uint64
}

func init() { register("mcf", func() machine.Workload { return &Mcf{} }) }

const (
	mcfArcBytes  = 24 << 20 // arena of arc structs
	mcfNodeBytes = 6 << 20  // arena of node structs
	mcfBasket    = 512 << 10
	mcfArcSize   = 64 // one arc struct per cache line
	mcfNodeSize  = 64
)

// Name implements machine.Workload.
func (w *Mcf) Name() string { return "mcf" }

// Setup implements machine.Workload.
func (w *Mcf) Setup(m *machine.Machine) {
	var err error
	if w.arcs, err = m.Space.NewArena("arcs", mcfArcBytes); err != nil {
		panic(err)
	}
	if w.nodes, err = m.Space.NewArena("nodes", mcfNodeBytes); err != nil {
		panic(err)
	}
	// Populate the arenas (bump allocation; addresses are what matter).
	for w.arcs.Used()+mcfArcSize <= mcfArcBytes {
		if _, err := w.arcs.Alloc(mcfArcSize); err != nil {
			panic(err)
		}
	}
	for w.nodes.Used()+mcfNodeSize <= mcfNodeBytes {
		if _, err := w.nodes.Alloc(mcfNodeSize); err != nil {
			panic(err)
		}
	}
	w.basket = m.Space.MustDefineGlobal("perm_basket", mcfBasket)
}

// Step performs one pricing pass: a dependent pointer walk over arcs,
// touching the tail node of each visited arc and occasionally spilling a
// candidate into the basket.
func (w *Mcf) Step(m *machine.Machine) {
	nArcs := uint64(mcfArcBytes / mcfArcSize)
	nNodes := uint64(mcfNodeBytes / mcfNodeSize)
	for i := 0; i < 2048; i++ {
		// Dependent walk: the next arc index is derived from the current
		// one (modelling arc->next pointer chasing).
		w.cursor = (w.cursor*6364136223846793005 + 1442695040888963407) % nArcs
		m.Load(w.arcs.Base() + mem.Addr(w.cursor*mcfArcSize))
		m.Compute(6)
		// Tail node lookup on ~1/2 of the arcs.
		if w.cursor&1 == 0 {
			node := (w.cursor * 2654435761) % nNodes
			m.Load(w.nodes.Base() + mem.Addr(node*mcfNodeSize))
			m.Compute(4)
		}
		// Basket spill on ~1/16. The random walk over 24 MiB of arcs
		// evicts the 512 KiB basket between spills, so these stores miss
		// like every other mcf reference.
		if w.cursor&15 == 3 {
			m.Store(w.basket + mem.Addr((w.cursor*8)%mcfBasket))
		}
	}
}

// Art recreates 179.art, the adaptive-resonance image recognizer: the
// F1-layer neuron array is scanned while the much larger weight matrices
// stream, so the weights dominate misses.
type Art struct {
	sched schedule
}

func init() { register("art", func() machine.Workload { return &Art{} }) }

const (
	artWeights = 8 << 20
	artF1      = 1 << 20
	artBus     = 4 << 20
)

// Name implements machine.Workload.
func (w *Art) Name() string { return "art" }

// Setup implements machine.Workload.
func (w *Art) Setup(m *machine.Machine) {
	tds := m.Space.MustDefineGlobal("tds", artWeights)
	bus := m.Space.MustDefineGlobal("bus", artBus)
	f1 := m.Space.MustDefineGlobal("f1_layer", artF1)

	const cpe = 4
	// Per round: tds swept twice (match + learn), bus once, f1 four times.
	w.sched.add(2*segs(artWeights), loadSweep(tds, artWeights, cpe))
	w.sched.add(1*segs(artBus), storeSweep(bus, artBus, cpe))
	w.sched.add(4*segs(artF1), loadSweep(f1, artF1, cpe))
	w.sched.build()
}

// Step implements machine.Workload.
func (w *Art) Step(m *machine.Machine) { w.sched.step(m) }

// Equake recreates 183.equake's sparse matrix-vector kernel: the value
// array K streams, the column-index array streams alongside it, and the
// displacement vector is gathered at index-driven (irregular) positions.
type Equake struct {
	k, col, disp mem.Addr
	pos          uint64
}

func init() { register("equake", func() machine.Workload { return &Equake{} }) }

const (
	equakeK    = 12 << 20
	equakeCol  = 3 << 20
	equakeDisp = 6 << 20
)

// Name implements machine.Workload.
func (w *Equake) Name() string { return "equake" }

// Setup implements machine.Workload.
func (w *Equake) Setup(m *machine.Machine) {
	w.k = m.Space.MustDefineGlobal("K", equakeK)
	w.col = m.Space.MustDefineGlobal("col", equakeCol)
	w.disp = m.Space.MustDefineGlobal("disp", equakeDisp)
}

// Step processes a strip of nonzeros: for each, load the value (stream),
// the column index (stream, 4 entries per value group), and gather from
// the displacement vector at a pseudo-random index.
func (w *Equake) Step(m *machine.Machine) {
	for i := 0; i < 4096; i++ {
		off := w.pos % equakeK
		m.Load(w.k + mem.Addr(off))
		if w.pos%32 == 0 {
			m.Load(w.col + mem.Addr((w.pos/4)%equakeCol))
		}
		// Gather: index depends on the position (hash stands in for the
		// stored column index).
		gi := (w.pos * 0x9e3779b97f4a7c15) % (equakeDisp / 8)
		m.Load(w.disp + mem.Addr(gi*8))
		m.Compute(5)
		w.pos += 8
	}
}

// ExtensionApps returns the SPEC2000-style workload names (not part of
// the paper's tables).
func ExtensionApps() []string { return []string{"mcf", "art", "equake"} }
