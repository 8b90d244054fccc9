package cfg

import (
	"testing"

	"rustprobe/internal/mir"
)

// buildBody constructs a Body whose block i jumps to the listed successors
// (nil = Return; one = Goto; two = SwitchInt).
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

func TestLinearCFG(t *testing.T) {
	b := buildBody([][]mir.BlockID{{1}, {2}, nil})
	g := New(b)
	if len(g.RPO) != 3 || g.RPO[0] != 0 || g.RPO[2] != 2 {
		t.Errorf("RPO = %v", g.RPO)
	}
	if len(g.Preds[2]) != 1 || g.Preds[2][0] != 1 {
		t.Errorf("preds of bb2 = %v", g.Preds[2])
	}
}

func TestDiamond(t *testing.T) {
	//      0
	//    /   \
	//   1     2
	//    \   /
	//      3
	b := buildBody([][]mir.BlockID{{1, 2}, {3}, {3}, nil})
	g := New(b)
	if g.RPO[0] != 0 || g.RPO[len(g.RPO)-1] != 3 {
		t.Errorf("RPO = %v, want entry first and join last", g.RPO)
	}
	if len(g.Preds[3]) != 2 {
		t.Errorf("join preds = %v", g.Preds[3])
	}
}

func TestLoop(t *testing.T) {
	// 0 -> 1 (head) -> {2 (body), 3 (exit)}; 2 -> 1
	b := buildBody([][]mir.BlockID{{1}, {2, 3}, {1}, nil})
	g := New(b)
	if g.RPOIndex[1] > g.RPOIndex[2] || g.RPOIndex[1] > g.RPOIndex[3] {
		t.Errorf("loop head must precede body and exit in RPO: %v", g.RPO)
	}
	reach := g.ReachableFrom(2)
	if !reach[1] || !reach[3] {
		t.Errorf("reach from body = %v", reach)
	}
}

func TestUnreachableBlock(t *testing.T) {
	b := buildBody([][]mir.BlockID{{2}, nil, nil}) // block 1 unreachable
	g := New(b)
	if g.Reachable(1) {
		t.Error("block 1 should be unreachable")
	}
	if g.ReachableFrom(0)[1] {
		t.Error("block 1 reachable from entry")
	}
}
