// Package cfg provides control-flow-graph utilities over MIR bodies:
// predecessor maps, postorder/reverse-postorder traversals, and
// reachability.
package cfg

import "rustprobe/internal/mir"

// Graph caches CFG structure for one body.
type Graph struct {
	Body  *mir.Body
	Preds [][]mir.BlockID
	Succs [][]mir.BlockID
	// RPO is the reverse postorder over reachable blocks from entry (bb0).
	RPO []mir.BlockID
	// RPOIndex maps a block to its position in RPO, or -1 if unreachable.
	RPOIndex []int
}

// New builds the Graph for a body.
func New(b *mir.Body) *Graph {
	n := len(b.Blocks)
	g := &Graph{
		Body:     b,
		Preds:    make([][]mir.BlockID, n),
		Succs:    make([][]mir.BlockID, n),
		RPOIndex: make([]int, n),
	}
	for _, blk := range b.Blocks {
		if blk.Term == nil {
			continue
		}
		for _, s := range blk.Term.Successors() {
			g.Succs[blk.ID] = append(g.Succs[blk.ID], s)
			g.Preds[s] = append(g.Preds[s], blk.ID)
		}
	}
	// Postorder DFS from entry.
	visited := make([]bool, n)
	var post []mir.BlockID
	var dfs func(mir.BlockID)
	dfs = func(id mir.BlockID) {
		visited[id] = true
		for _, s := range g.Succs[id] {
			if !visited[s] {
				dfs(s)
			}
		}
		post = append(post, id)
	}
	if n > 0 {
		dfs(0)
	}
	for i := range g.RPOIndex {
		g.RPOIndex[i] = -1
	}
	for i := len(post) - 1; i >= 0; i-- {
		g.RPOIndex[post[i]] = len(g.RPO)
		g.RPO = append(g.RPO, post[i])
	}
	return g
}

// Reachable reports whether the block is reachable from entry.
func (g *Graph) Reachable(id mir.BlockID) bool { return g.RPOIndex[id] >= 0 }

// ReachableFrom returns the set of blocks reachable from start, inclusive.
func (g *Graph) ReachableFrom(start mir.BlockID) map[mir.BlockID]bool {
	seen := map[mir.BlockID]bool{start: true}
	work := []mir.BlockID{start}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range g.Succs[cur] {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return seen
}
