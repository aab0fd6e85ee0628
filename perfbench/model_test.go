package main

import (
	"testing"

	"membottle/internal/objmap"
)

// access replays a stream of (line, write) references on m and returns
// the miss pattern as a string of 'M' and 'h'.
func replay(m *lruModel, lineSize uint64, lines []uint64, writes []bool) string {
	out := make([]byte, len(lines))
	for i, l := range lines {
		w := writes != nil && writes[i]
		if m.access(l*lineSize, w) {
			out[i] = 'M'
		} else {
			out[i] = 'h'
		}
	}
	return string(out)
}

// TestLRUConflictEvictionOrder works a 4-way set by hand: after A B C D
// the recency order is D C B A; touching A makes it A D C B, so E evicts
// B, then B evicts C, D hits, C evicts A and A evicts E.
func TestLRUConflictEvictionOrder(t *testing.T) {
	const line = 64
	m := newLRUModel(4*line, line, 4) // one set of four ways
	const A, B, C, D, E = 10, 11, 12, 13, 14
	got := replay(m, line, []uint64{A, B, C, D, A, E, B, D, C, A}, nil)
	if want := "MMMMhMMhMM"; got != want {
		t.Fatalf("miss pattern %s, want %s", got, want)
	}
	if m.Misses != 8 || m.Reads != 10 || m.Writes != 0 {
		t.Fatalf("misses %d reads %d writes %d, want 8 10 0", m.Misses, m.Reads, m.Writes)
	}
}

// TestLRUSetsIndependent: with two sets, lines of the odd set never
// evict lines of the even set.
func TestLRUSetsIndependent(t *testing.T) {
	const line = 64
	m := newLRUModel(8*line, line, 4) // two sets of four ways
	// Even lines 0 2 4 6 fill set 0; odd lines 1..9 overflow set 1.
	got := replay(m, line, []uint64{0, 2, 4, 6, 1, 3, 5, 7, 9, 0, 2, 4, 6, 1}, nil)
	if want := "MMMMMMMMMhhhhM"; got != want {
		t.Fatalf("miss pattern %s, want %s", got, want)
	}
}

// TestLRUWriteMisses: a store to an absent line misses and allocates it,
// so the following load and store hit.
func TestLRUWriteMisses(t *testing.T) {
	const line = 64
	m := newLRUModel(4*line, line, 4)
	got := replay(m, line, []uint64{3, 3, 3, 4}, []bool{true, false, true, true})
	if want := "MhhM"; got != want {
		t.Fatalf("miss pattern %s, want %s", got, want)
	}
	if m.Writes != 3 || m.Reads != 1 || m.Misses != 2 {
		t.Fatalf("writes %d reads %d misses %d, want 3 1 2", m.Writes, m.Reads, m.Misses)
	}
	// Offsets within a line hit the same line.
	if m.access(3*line+63, false) {
		t.Fatal("last byte of a resident line missed")
	}
}

func TestExtentTable(t *testing.T) {
	objs := []*objmap.Object{
		{ID: 0, Name: "b", Base: 0x2000, Size: 0x100},
		{ID: 1, Name: "a", Base: 0x1000, Size: 0x10},
	}
	tab, err := newExtentTable(objs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		addr uint64
		want string
	}{{0x0fff, ""}, {0x1000, "a"}, {0x100f, "a"}, {0x1010, ""}, {0x2000, "b"}, {0x20ff, "b"}, {0x2100, ""}} {
		got := ""
		if i := tab.find(c.addr); i >= 0 {
			got = tab[i].name
		}
		if got != c.want {
			t.Errorf("find(%#x) = %q, want %q", c.addr, got, c.want)
		}
	}
	objs = append(objs, &objmap.Object{ID: 2, Name: "c", Base: 0x1008, Size: 8})
	if _, err := newExtentTable(objs); err == nil {
		t.Error("overlapping objects accepted")
	}
}
