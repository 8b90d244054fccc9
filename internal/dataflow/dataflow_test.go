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
	if err := quick.Check(prop, nil); err != nil {
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
