package main

import (
	"context"
	"fmt"
	"sort"

	"membottle"
	"membottle/internal/machine"
	"membottle/internal/objmap"
)

// The reference model recomputes ground truth without the program's
// cache or object map: a textbook set-associative LRU cache fed the
// captured reference stream, and misses attributed by a binary search
// over the objects' sorted extents. The outputs of every truth engine
// are checked against it.

// lruModel is a set-associative LRU cache kept as one recency stack per
// set, most recently used line first. It allocates on read and write
// misses alike.
type lruModel struct {
	lineSize uint64
	sets     uint64
	assoc    int
	stack    []uint64 // sets*assoc line numbers
	valid    []int    // lines held per set

	Reads, Writes, Misses uint64
}

func newLRUModel(size, lineSize, assoc int) *lruModel {
	sets := size / lineSize / assoc
	return &lruModel{
		lineSize: uint64(lineSize),
		sets:     uint64(sets),
		assoc:    assoc,
		stack:    make([]uint64, sets*assoc),
		valid:    make([]int, sets),
	}
}

// access references address a and reports whether it missed.
func (m *lruModel) access(a uint64, write bool) bool {
	if write {
		m.Writes++
	} else {
		m.Reads++
	}
	line := a / m.lineSize
	set := line % m.sets
	s := m.stack[int(set)*m.assoc : int(set+1)*m.assoc]
	n := m.valid[set]
	for i := 0; i < n; i++ {
		if s[i] == line {
			copy(s[1:i+1], s[:i])
			s[0] = line
			return false
		}
	}
	m.Misses++
	if n < m.assoc {
		m.valid[set]++
		n++
	}
	// Push the line on top; when the set was full the bottom (least
	// recently used) line falls off.
	copy(s[1:n], s[:n-1])
	s[0] = line
	return true
}

// extent is one object's address range [base, end).
type extent struct {
	base, end uint64
	name      string
	id        int
}

// extentTable holds the objects' extents sorted by base address.
type extentTable []extent

func newExtentTable(objs []*objmap.Object) (extentTable, error) {
	t := make(extentTable, 0, len(objs))
	for _, o := range objs {
		t = append(t, extent{base: uint64(o.Base), end: uint64(o.Base) + o.Size, name: o.Name, id: o.ID})
	}
	sort.Slice(t, func(i, j int) bool { return t[i].base < t[j].base })
	for i := 1; i < len(t); i++ {
		if t[i].base < t[i-1].end {
			return nil, fmt.Errorf("model: objects %s and %s overlap", t[i-1].name, t[i].name)
		}
	}
	return t, nil
}

// find returns the index of the extent holding a, or -1.
func (t extentTable) find(a uint64) int {
	i := sort.Search(len(t), func(i int) bool { return t[i].end > a })
	if i < len(t) && t[i].base <= a {
		return i
	}
	return -1
}

// table is a ground-truth table in the form every check compares:
// application misses in total, outside any object, and per object name.
type table struct {
	Total, Unmatched uint64
	Misses           map[string]uint64 // objects with at least one miss
	// ID orders objects with equal counts, as the program's ranking does.
	ID map[string]int
}

// ranked returns the object names by misses descending, then object ID.
func (t table) ranked() []string {
	names := make([]string, 0, len(t.Misses))
	for n := range t.Misses {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := names[i], names[j]
		if t.Misses[a] != t.Misses[b] {
			return t.Misses[a] > t.Misses[b]
		}
		return t.ID[a] < t.ID[b]
	})
	return names
}

// pct is the object's share of all application misses, computed the way
// the program's truth tables compute it.
func (t table) pct(name string) float64 {
	if t.Total == 0 {
		return 0
	}
	return 100 * float64(t.Misses[name]) / float64(t.Total)
}

// modelSink feeds captured references to the LRU model and attributes
// its misses.
type modelSink struct {
	lru    *lruModel
	ext    extentTable
	counts []uint64
	out    table
}

// ConsumeRefs implements machine.RefSink.
//
//mb:coldpath benchmark reference model, run outside every timed section
func (s *modelSink) ConsumeRefs(refs []machine.Ref, _ uint64) {
	for _, r := range refs {
		if !s.lru.access(uint64(r.Addr), r.Write) {
			continue
		}
		s.out.Total++
		if i := s.ext.find(uint64(r.Addr)); i >= 0 {
			s.counts[i]++
		} else {
			s.out.Unmatched++
		}
	}
}

// modelResult is the reference model's account of one app and budget.
type modelResult struct {
	Truth    table
	Reads    uint64
	Writes   uint64
	AppInsts uint64
}

// runModel captures app's reference stream for budget application
// instructions and runs it through the reference model.
func runModel(app string, budget uint64) (modelResult, error) {
	cfg := membottle.DefaultConfig()
	cfg.SkipTruth = true
	sys := membottle.NewSystem(cfg)
	if err := sys.LoadWorkloadByName(app); err != nil {
		return modelResult{}, err
	}
	ext, err := newExtentTable(sys.Objects.Objects())
	if err != nil {
		return modelResult{}, err
	}
	g := cfg.Cache
	snk := &modelSink{
		lru:    newLRUModel(g.Size, g.LineSize, g.Assoc),
		ext:    ext,
		counts: make([]uint64, len(ext)),
		out:    table{Misses: map[string]uint64{}, ID: map[string]int{}},
	}
	sys.Machine.SetCapture(snk)
	err = sys.RunContext(context.Background(), budget)
	sys.Machine.FlushCapture()
	if err != nil {
		return modelResult{}, fmt.Errorf("model: capture %s: %w", app, err)
	}
	for i, n := range snk.counts {
		if n > 0 {
			snk.out.Misses[ext[i].name] += n
			snk.out.ID[ext[i].name] = ext[i].id
		}
	}
	return modelResult{Truth: snk.out, Reads: snk.lru.Reads, Writes: snk.lru.Writes, AppInsts: sys.Machine.AppInsts}, nil
}
