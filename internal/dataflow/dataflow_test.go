package dataflow

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rustprobe/internal/cfg"
	"rustprobe/internal/mir"
	"rustprobe/internal/source"
	"rustprobe/internal/types"
)

func TestBitSetBasics(t *testing.T) {
	s := NewBitSet(130)
	s.Set(0)
	s.Set(64)
	s.Set(129)
	if !s.Has(0) || !s.Has(64) || !s.Has(129) || s.Has(1) {
		t.Error("Set/Has broken")
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d", s.Count())
	}
	s.Clear(64)
	if s.Has(64) || s.Count() != 2 {
		t.Error("Clear broken")
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != 2 || got[0] != 0 || got[1] != 129 {
		t.Errorf("ForEach = %v", got)
	}
}

func TestBitSetLattice(t *testing.T) {
	// Union laws over random sets.
	prop := func(xs, ys []uint8) bool {
		a, b := NewBitSet(256), NewBitSet(256)
		for _, x := range xs {
			a.Set(int(x))
		}
		for _, y := range ys {
			b.Set(int(y))
		}
		// a ∪ b ⊇ a and idempotent.
		u := a.Clone()
		u.UnionWith(b)
		for _, x := range xs {
			if !u.Has(int(x)) {
				return false
			}
		}
		u2 := u.Clone()
		if u2.UnionWith(b) { // no change the second time
			return false
		}
		// Every bit of a ∪ b comes from a or b.
		ok := true
		u.ForEach(func(bit int) {
			if !a.Has(bit) && !b.Has(bit) {
				ok = false
			}
		})
		return ok && u.Equal(u2)
	}
	if err := quick.Check(prop, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// gen/kill problem over a known diamond: verify the union join merges both
// branch effects and StateAt replays a block prefix.
func TestForwardDiamond(t *testing.T) {
	b := &mir.Body{}
	for i := 0; i < 4; i++ {
		b.NewBlock()
	}
	b.NewLocal("", types.UnknownType, false, source.Span{})
	// bb0: switch -> bb1, bb2 ; bb1: StorageLive(0) ; bb2: nothing ; both -> bb3.
	b.Blocks[0].Term = mir.SwitchInt{Disc: mir.Const{Text: "c"},
		Targets: []mir.SwitchTarget{{Value: "t", Block: 1}}, Otherwise: 2}
	b.Blocks[1].Stmts = []mir.Statement{mir.StorageLive{Local: 0}}
	b.Blocks[1].Term = mir.Goto{Target: 3}
	b.Blocks[2].Term = mir.Goto{Target: 3}
	b.Blocks[3].Term = mir.Return{}

	g := cfg.New(b)
	prob := &Problem{
		Bits: 1,
		TransferStmt: func(state BitSet, _ mir.BlockID, _ int, st mir.Statement) {
			if _, ok := st.(mir.StorageLive); ok {
				state.Set(0)
			}
		},
	}
	res := Forward(g, prob)
	if !res.In[3].Has(0) {
		t.Error("may-analysis: bit should reach the join via bb1")
	}
	if res.In[2].Has(0) {
		t.Error("bit must not appear on the untouched branch")
	}
}

func TestStateAtReplaysPrefix(t *testing.T) {
	b := &mir.Body{}
	b.NewBlock()
	b.NewLocal("", types.UnknownType, false, source.Span{})
	b.NewLocal("", types.UnknownType, false, source.Span{})
	b.Blocks[0].Stmts = []mir.Statement{
		mir.StorageLive{Local: 0},
		mir.StorageLive{Local: 1},
	}
	b.Blocks[0].Term = mir.Return{}
	g := cfg.New(b)
	prob := &Problem{
		Bits: 2,
		TransferStmt: func(state BitSet, _ mir.BlockID, _ int, st mir.Statement) {
			if sl, ok := st.(mir.StorageLive); ok {
				state.Set(int(sl.Local))
			}
		},
	}
	res := Forward(g, prob)
	if res.StateAt(0, 0).Count() != 0 {
		t.Error("state before stmt 0 should be empty")
	}
	if !res.StateAt(0, 1).Has(0) || res.StateAt(0, 1).Has(1) {
		t.Error("state before stmt 1 wrong")
	}
	if res.StateAt(0, 2).Count() != 2 {
		t.Error("state before terminator wrong")
	}
}

// TestMonotoneConvergence: on random CFGs with random gen/kill sets the
// union analysis converges and its fixpoint is stable under one more
// application.
func TestMonotoneConvergence(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(8)
		bits := 8
		body := &mir.Body{}
		gens := make([][]int, n)
		for i := 0; i < n; i++ {
			body.NewBlock()
			for j := 0; j < r.Intn(3); j++ {
				gens[i] = append(gens[i], r.Intn(bits))
			}
		}
		for i := 0; i < n; i++ {
			switch r.Intn(3) {
			case 0:
				body.Blocks[i].Term = mir.Return{}
			case 1:
				body.Blocks[i].Term = mir.Goto{Target: mir.BlockID(r.Intn(n))}
			default:
				body.Blocks[i].Term = mir.SwitchInt{Disc: mir.Const{Text: "c"},
					Targets:   []mir.SwitchTarget{{Value: "t", Block: mir.BlockID(r.Intn(n))}},
					Otherwise: mir.BlockID(r.Intn(n))}
			}
		}
		g := cfg.New(body)
		prob := &Problem{
			Bits: bits,
			TransferTerm: func(state BitSet, blk mir.BlockID, _ mir.Terminator) {
				for _, bit := range gens[blk] {
					state.Set(bit)
				}
			},
		}
		res := Forward(g, prob)
		// Stability: for every edge u->v, transfer(In[u]) ⊆ In[v].
		for _, u := range g.RPO {
			state := res.In[u].Clone()
			if body.Blocks[u].Term != nil {
				prob.TransferTerm(state, u, body.Blocks[u].Term)
			}
			for _, v := range g.Succs[u] {
				merged := res.In[v].Clone()
				if merged.UnionWith(state) {
					t.Fatalf("fixpoint not stable on edge bb%d->bb%d", u, v)
				}
			}
		}
	}
}

// buildBody constructs a Body whose block i jumps to the listed successors
// (nil = Return; one = Goto; more = SwitchInt), the shape cfg's tests use.
func buildBody(succs [][]mir.BlockID) *mir.Body {
	b := &mir.Body{}
	for range succs {
		b.NewBlock()
	}
	for i, ss := range succs {
		switch len(ss) {
		case 0:
			b.Blocks[i].Term = mir.Return{}
		case 1:
			b.Blocks[i].Term = mir.Goto{Target: ss[0]}
		default:
			var targets []mir.SwitchTarget
			for _, s := range ss[:len(ss)-1] {
				targets = append(targets, mir.SwitchTarget{Value: "v", Block: s})
			}
			b.Blocks[i].Term = mir.SwitchInt{
				Disc:      mir.Const{Text: "c"},
				Targets:   targets,
				Otherwise: ss[len(ss)-1],
			}
		}
	}
	return b
}

// naiveForward is the reference fixpoint: sweep every reachable block in
// index order, recomputing its entry state as the union of its reachable
// predecessors' exit states, until a sweep changes nothing.
func naiveForward(g *cfg.Graph, p *Problem) []BitSet {
	n := len(g.Body.Blocks)
	in := make([]BitSet, n)
	for i := range in {
		in[i] = NewBitSet(p.Bits)
	}
	if n == 0 {
		return in
	}
	exit := func(b mir.BlockID) BitSet {
		s := in[b].Clone()
		applyBlock(s, g.Body.Blocks[b], p)
		return s
	}
	for changed := true; changed; {
		changed = false
		for v := 0; v < n; v++ {
			if !g.Reachable(mir.BlockID(v)) {
				continue
			}
			next := NewBitSet(p.Bits)
			if v == 0 && p.Entry != nil {
				p.Entry(next)
			}
			for _, u := range g.Preds[v] {
				if g.Reachable(u) {
					next.UnionWith(exit(u))
				}
			}
			if !next.Equal(in[v]) {
				in[v] = next
				changed = true
			}
		}
	}
	return in
}

// TestForwardMatchesNaiveFixpoint: on random CFGs (loops, unreachable
// blocks, multi-way switches) with random gen/kill statements, an entry
// seed and terminator effects, Forward's entry states equal the naive
// round-robin fixpoint's, and StateAt agrees with replaying the block.
func TestForwardMatchesNaiveFixpoint(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(12)
		bits := 1 + r.Intn(130)
		succs := make([][]mir.BlockID, n)
		for i := range succs {
			for k := r.Intn(4); k > 0; k-- {
				succs[i] = append(succs[i], mir.BlockID(r.Intn(n)))
			}
		}
		body := buildBody(succs)
		termGen := make([][]int, n)
		for i, blk := range body.Blocks {
			for k := r.Intn(4); k > 0; k-- {
				l := mir.LocalID(r.Intn(bits))
				if r.Intn(3) == 0 {
					blk.Stmts = append(blk.Stmts, mir.StorageDead{Local: l})
				} else {
					blk.Stmts = append(blk.Stmts, mir.StorageLive{Local: l})
				}
			}
			if r.Intn(2) == 0 {
				termGen[i] = append(termGen[i], r.Intn(bits))
			}
		}
		entry := r.Intn(bits)
		prob := &Problem{
			Bits:  bits,
			Entry: func(s BitSet) { s.Set(entry) },
			TransferStmt: func(s BitSet, _ mir.BlockID, _ int, st mir.Statement) {
				switch st := st.(type) {
				case mir.StorageLive:
					s.Set(int(st.Local))
				case mir.StorageDead:
					s.Clear(int(st.Local))
				}
			},
			TransferTerm: func(s BitSet, b mir.BlockID, _ mir.Terminator) {
				for _, bit := range termGen[b] {
					s.Set(bit)
				}
			},
		}
		g := cfg.New(body)
		got := Forward(g, prob)
		want := naiveForward(g, prob)
		for b := range want {
			if !got.In[b].Equal(want[b]) {
				t.Fatalf("trial %d (succs %v): In[bb%d] differs from the naive fixpoint", trial, succs, b)
			}
			id := mir.BlockID(b)
			replay := want[b].Clone()
			for i, st := range body.Blocks[b].Stmts {
				if !got.StateAt(id, i).Equal(replay) {
					t.Fatalf("trial %d: StateAt(bb%d, %d) differs from a replay", trial, b, i)
				}
				prob.TransferStmt(replay, id, i, st)
			}
		}
	}
}
