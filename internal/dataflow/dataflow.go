// Package dataflow implements a generic worklist dataflow engine over MIR
// CFGs using bit sets as the fact domain. The detectors instantiate it for
// live-storage, live-guard and pointer-validity analyses.
package dataflow

import (
	"math/bits"

	"rustprobe/internal/cfg"
	"rustprobe/internal/mir"
)

// BitSet is a fixed-capacity bit set.
type BitSet []uint64

// NewBitSet returns a set with capacity for n bits.
func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

// Set sets bit i.
func (s BitSet) Set(i int) { s[i/64] |= 1 << uint(i%64) }

// Clear clears bit i.
func (s BitSet) Clear(i int) { s[i/64] &^= 1 << uint(i%64) }

// Has reports whether bit i is set.
func (s BitSet) Has(i int) bool { return s[i/64]&(1<<uint(i%64)) != 0 }

// Clone copies the set.
func (s BitSet) Clone() BitSet {
	out := make(BitSet, len(s))
	copy(out, s)
	return out
}

// UnionWith ors other into s, reporting whether s changed.
func (s BitSet) UnionWith(other BitSet) bool {
	changed := false
	for i := range s {
		old := s[i]
		s[i] |= other[i]
		if s[i] != old {
			changed = true
		}
	}
	return changed
}

// Equal reports set equality.
func (s BitSet) Equal(other BitSet) bool {
	for i := range s {
		if s[i] != other[i] {
			return false
		}
	}
	return true
}

// Count returns the number of set bits.
func (s BitSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls f for every set bit in ascending order.
func (s BitSet) ForEach(f func(int)) {
	for wi, w := range s {
		for w != 0 {
			i := bits.TrailingZeros64(w)
			f(wi*64 + i)
			w &^= 1 << uint(i)
		}
	}
}

// Problem defines a forward may-analysis over one body: facts from
// different predecessors join by union.
type Problem struct {
	// Bits is the domain size.
	Bits int
	// Entry seeds the state at function entry.
	Entry func(state BitSet)
	// TransferStmt updates state across one statement.
	TransferStmt func(state BitSet, blk mir.BlockID, idx int, st mir.Statement)
	// TransferTerm updates state across a terminator, before edges fan
	// out. Optional.
	TransferTerm func(state BitSet, blk mir.BlockID, term mir.Terminator)
}

// Result holds per-block entry states of a converged analysis.
type Result struct {
	Graph *cfg.Graph
	In    []BitSet // state at block entry
	prob  *Problem
}

// Forward runs a forward analysis to fixpoint and returns per-block entry
// states. Blocks are visited from a FIFO worklist seeded in reverse
// postorder; a block is queued at most once at a time, so a ring of n
// slots holds the worklist. Every entry state lives in one slab, and one
// scratch state carries each visit's transfer.
func Forward(g *cfg.Graph, p *Problem) *Result {
	n := len(g.Body.Blocks)
	words := len(NewBitSet(p.Bits))
	slab := make([]uint64, n*words)
	in := make([]BitSet, n)
	for i := range in {
		in[i] = BitSet(slab[i*words : (i+1)*words : (i+1)*words])
	}
	if n == 0 {
		return &Result{Graph: g, In: in, prob: p}
	}
	if p.Entry != nil {
		p.Entry(in[0])
	}

	ring := make([]mir.BlockID, n)
	inWork := make([]bool, n)
	head, queued := 0, 0
	for _, b := range g.RPO {
		ring[queued] = b
		inWork[b] = true
		queued++
	}
	state := NewBitSet(p.Bits)
	for queued > 0 {
		b := ring[head]
		head = (head + 1) % n
		queued--
		inWork[b] = false

		copy(state, in[b])
		applyBlock(state, g.Body.Blocks[b], p)

		for _, s := range g.Succs[b] {
			if in[s].UnionWith(state) && !inWork[s] {
				ring[(head+queued)%n] = s
				inWork[s] = true
				queued++
			}
		}
	}
	return &Result{Graph: g, In: in, prob: p}
}

func applyBlock(state BitSet, blk *mir.Block, p *Problem) {
	for i, st := range blk.Stmts {
		if p.TransferStmt != nil {
			p.TransferStmt(state, blk.ID, i, st)
		}
	}
	if blk.Term != nil && p.TransferTerm != nil {
		p.TransferTerm(state, blk.ID, blk.Term)
	}
}

// StateAt recomputes the state just before statement idx of block b
// (idx == len(stmts) gives the state before the terminator).
func (r *Result) StateAt(b mir.BlockID, idx int) BitSet {
	state := r.In[b].Clone()
	blk := r.Graph.Body.Blocks[b]
	for i := 0; i < idx && i < len(blk.Stmts); i++ {
		if r.prob.TransferStmt != nil {
			r.prob.TransferStmt(state, b, i, blk.Stmts[i])
		}
	}
	return state
}
