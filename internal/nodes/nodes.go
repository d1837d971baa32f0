// Package nodes derives the Lazy Code Motion paper's program model from the
// block IR: a flow graph with one elementary statement per node, a unique
// empty entry node and a unique empty exit node. Block terminators get
// nodes of their own (they are empty program points at block ends, which is
// also what gives empty blocks — including the synthetic blocks created by
// critical-edge splitting — a place to stand), and every node carries the
// paper's local predicates COMP and TRANSP as bit vectors over the
// function's expression universe.
//
// The node graph is a read-only view: analyses run on it, and their results
// are mapped back to (block, position) insertion points on the block IR.
package nodes

import (
	"fmt"

	"lazycm/internal/bitvec"
	"lazycm/internal/ir"
	"lazycm/internal/props"
)

// Kind discriminates node flavours.
type Kind int

const (
	// Entry is the unique empty entry node.
	Entry Kind = iota
	// Exit is the unique empty exit node.
	Exit
	// Stmt is an instruction node.
	Stmt
	// Term is a block-terminator node: an empty program point at the end
	// of its block (branch conditions read variables but modify nothing).
	Term
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Entry:
		return "entry"
	case Exit:
		return "exit"
	case Stmt:
		return "stmt"
	case Term:
		return "term"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Node is one program point.
type Node struct {
	Kind Kind
	// Block is the owning block (nil for Entry/Exit).
	Block *ir.Block
	// Index is the instruction index within Block for Stmt nodes.
	Index int
}

// String renders the node for diagnostics, e.g. "join[1] y = a + b".
func (n Node) String() string {
	switch n.Kind {
	case Entry:
		return "<entry>"
	case Exit:
		return "<exit>"
	case Stmt:
		return fmt.Sprintf("%s[%d] %s", n.Block.Name, n.Index, n.Block.Instrs[n.Index])
	case Term:
		return fmt.Sprintf("%s[term] %s", n.Block.Name, n.Block.Term)
	}
	return "<invalid>"
}

// Graph is the statement-level flow graph. It implements dataflow.Graph.
type Graph struct {
	F *ir.Function
	U *props.Universe
	// Nodes[0] is the entry node; Nodes[len-1] is the exit node. Between
	// them, nodes appear in block order, instructions before the block's
	// terminator node.
	Nodes []Node
	// Comp and Transp are the per-node local predicates.
	Comp, Transp *bitvec.Matrix

	// The adjacency is flat: node n's successors are
	// succ[succStart[n]:succStart[n+1]], and likewise its predecessors.
	succStart, succ []int
	predStart, pred []int
	// firstOf[blockID] is the block's first node (its first instruction,
	// or its terminator node if the block is empty). termOf[blockID] is
	// the block's terminator node.
	firstOf, termOf []int
}

// Build derives the node graph of f over universe u. The caller is
// responsible for having split critical edges first if insertions will be
// derived from the graph (lcm.Transform does this).
func Build(f *ir.Function, u *props.Universe) *Graph {
	g := &Graph{F: f, U: u}
	g.Nodes = make([]Node, 0, f.NumInstrs()+f.NumBlocks()+2)
	g.Nodes = append(g.Nodes, Node{Kind: Entry})
	g.firstOf = make([]int, f.NumBlocks())
	g.termOf = make([]int, f.NumBlocks())
	for _, b := range f.Blocks {
		g.firstOf[b.ID] = len(g.Nodes)
		for i := range b.Instrs {
			g.Nodes = append(g.Nodes, Node{Kind: Stmt, Block: b, Index: i})
		}
		g.termOf[b.ID] = len(g.Nodes)
		g.Nodes = append(g.Nodes, Node{Kind: Term, Block: b})
	}
	g.Nodes = append(g.Nodes, Node{Kind: Exit})

	// The edges are enumerated twice, in the same order: once to size
	// the flat adjacency arrays and once to fill them. That order fixes
	// every node's successor and predecessor order.
	edges := func(addEdge func(a, b int)) {
		addEdge(g.EntryNode(), g.firstOf[f.Entry().ID])
		for _, b := range f.Blocks {
			// Chain the block's nodes.
			first := g.firstOf[b.ID]
			term := g.termOf[b.ID]
			for i := first; i < term; i++ {
				addEdge(i, i+1)
			}
			// Terminator to successor blocks' first nodes, or to exit.
			if b.Term.Kind == ir.Ret {
				addEdge(term, g.ExitNode())
				continue
			}
			for i, m := 0, b.NumSuccs(); i < m; i++ {
				addEdge(term, g.firstOf[b.Succ(i).ID])
			}
		}
	}
	n := len(g.Nodes)
	g.succStart = make([]int, n+1)
	g.predStart = make([]int, n+1)
	edges(func(a, b int) {
		g.succStart[a+1]++
		g.predStart[b+1]++
	})
	for i := 0; i < n; i++ {
		g.succStart[i+1] += g.succStart[i]
		g.predStart[i+1] += g.predStart[i]
	}
	g.succ = make([]int, g.succStart[n])
	g.pred = make([]int, g.predStart[n])
	nextSucc := append([]int(nil), g.succStart[:n]...)
	nextPred := append([]int(nil), g.predStart[:n]...)
	edges(func(a, b int) {
		g.succ[nextSucc[a]] = b
		nextSucc[a]++
		g.pred[nextPred[b]] = a
		nextPred[b]++
	})

	// Local predicates.
	w := u.Size()
	g.Comp = bitvec.NewMatrix(n, w)
	g.Transp = bitvec.NewMatrix(n, w)
	for id, nd := range g.Nodes {
		tr := g.Transp.Row(id)
		tr.SetAll()
		if nd.Kind != Stmt {
			continue
		}
		in := nd.Block.Instrs[nd.Index]
		if e, ok := in.Expr(); ok {
			if i, found := u.Index(e); found {
				g.Comp.Set(id, i)
			}
		}
		if d := in.Defs(); d != "" {
			if kv := u.KilledBy(d); kv != nil {
				tr.AndNot(kv)
			}
		}
	}
	return g
}

// EntryNode returns the entry node's index (always 0).
func (g *Graph) EntryNode() int { return 0 }

// ExitNode returns the exit node's index.
func (g *Graph) ExitNode() int { return len(g.Nodes) - 1 }

// FirstOf returns the first node of block b.
func (g *Graph) FirstOf(b *ir.Block) int { return g.firstOf[b.ID] }

// TermOf returns the terminator node of block b.
func (g *Graph) TermOf(b *ir.Block) int { return g.termOf[b.ID] }

// NumNodes implements dataflow.Graph.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumSuccs implements dataflow.Graph.
func (g *Graph) NumSuccs(n int) int { return g.succStart[n+1] - g.succStart[n] }

// Succ implements dataflow.Graph.
func (g *Graph) Succ(n, i int) int { return g.succ[g.succStart[n]+i] }

// NumPreds implements dataflow.Graph.
func (g *Graph) NumPreds(n int) int { return g.predStart[n+1] - g.predStart[n] }

// Pred implements dataflow.Graph.
func (g *Graph) Pred(n, i int) int { return g.pred[g.predStart[n]+i] }
