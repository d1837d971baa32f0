// Package props builds the candidate-expression universe of a function and
// the local predicates the PRE analyses consume: for every block (or, via
// package nodes, every statement) and every expression e,
//
//	ANTLOC — e is locally anticipatable: computed before any operand of e
//	         is modified (upward exposed);
//	COMP   — e is locally available on exit: computed and no operand
//	         modified afterwards (downward exposed);
//	TRANSP — transparent: no statement modifies an operand of e.
//
// The statement v = a ⊕ b with v ∈ {a, b} is the classic corner: it is
// ANTLOC (the operands are read before v is written) but neither COMP nor
// TRANSP.
package props

import (
	"lazycm/internal/bitvec"
	"lazycm/internal/ir"
)

// Universe is the ordered set of candidate expressions of one function.
// Expressions are numbered in first-occurrence order (block order, then
// statement order), so numbering is deterministic. The zero Universe is
// the empty universe.
type Universe struct {
	exprs []ir.Expr
	index map[ir.Expr]int
	// killedBy[v] is the set of expressions with v as an operand.
	killedBy map[string]*bitvec.Vector
	// canon records whether Index canonicalizes commutative operands
	// (see CollectCanonical).
	canon bool
}

// Collect scans f and returns its expression universe.
func Collect(f *ir.Function) *Universe {
	// Presize the index to the instruction count (an upper bound on the
	// expression count) so insertion never rehashes: incremental map growth
	// was the single hottest line of the whole analysis prep.
	u := &Universe{index: make(map[ir.Expr]int, f.NumInstrs())}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			e, ok := in.Expr()
			if !ok {
				continue
			}
			if _, dup := u.index[e]; dup {
				continue
			}
			u.index[e] = len(u.exprs)
			u.exprs = append(u.exprs, e)
		}
	}
	u.buildKills()
	return u
}

// buildKills fills the variable→expressions kill map after exprs are set.
func (u *Universe) buildKills() {
	u.killedBy = make(map[string]*bitvec.Vector)
	var scratch []string
	for i, e := range u.exprs {
		scratch = e.Vars(scratch[:0])
		for _, v := range scratch {
			kv := u.killedBy[v]
			if kv == nil {
				kv = bitvec.New(len(u.exprs))
				u.killedBy[v] = kv
			}
			kv.Set(i)
		}
	}
}

// Size returns the number of candidate expressions.
func (u *Universe) Size() int { return len(u.exprs) }

// Expr returns expression number i.
func (u *Universe) Expr(i int) ir.Expr { return u.exprs[i] }

// Exprs returns all expressions in numbering order. The slice is owned by
// the universe; do not mutate.
func (u *Universe) Exprs() []ir.Expr { return u.exprs }

// Index returns the number of e and whether e is in the universe. In a
// canonical universe (CollectCanonical), e is canonicalized first.
func (u *Universe) Index(e ir.Expr) (int, bool) {
	if u.canon {
		e = Canonicalize(e)
	}
	i, ok := u.index[e]
	return i, ok
}

// KilledBy returns the set of expressions that have variable v as an
// operand, or nil if none (callers must treat nil as the empty set).
func (u *Universe) KilledBy(v string) *bitvec.Vector { return u.killedBy[v] }

// AddKilledBy ors into dst the expressions killed by defining v.
func (u *Universe) AddKilledBy(dst *bitvec.Vector, v string) {
	if v == "" {
		return
	}
	if kv := u.killedBy[v]; kv != nil {
		dst.Or(kv)
	}
}

// BlockLocal holds the block-level local predicates, one row per block ID.
type BlockLocal struct {
	U *Universe
	// Antloc, Comp and Transp are NumBlocks×Size matrices.
	Antloc, Comp, Transp *bitvec.Matrix
}

// ComputeBlockLocal computes ANTLOC/COMP/TRANSP for every block of f over
// universe u.
func ComputeBlockLocal(f *ir.Function, u *Universe) *BlockLocal {
	n := f.NumBlocks()
	w := u.Size()
	bl := &BlockLocal{
		U:      u,
		Antloc: bitvec.NewMatrix(n, w),
		Comp:   bitvec.NewMatrix(n, w),
		Transp: bitvec.NewMatrix(n, w),
	}
	killed := bitvec.New(w)
	for _, b := range f.Blocks {
		// Forward walk: ANTLOC and the block's total kill set.
		killed.ClearAll()
		for _, in := range b.Instrs {
			if e, ok := in.Expr(); ok {
				if i, found := u.Index(e); found && !killed.Get(i) {
					bl.Antloc.Set(b.ID, i)
				}
			}
			u.AddKilledBy(killed, in.Defs())
		}
		// TRANSP = ¬killed.
		tr := bl.Transp.Row(b.ID)
		tr.CopyFrom(killed)
		tr.Not()

		// Backward walk: COMP. A computation is downward exposed if no
		// statement at or after it (including its own definition) kills
		// the expression.
		killed.ClearAll()
		for j := len(b.Instrs) - 1; j >= 0; j-- {
			in := b.Instrs[j]
			u.AddKilledBy(killed, in.Defs())
			if e, ok := in.Expr(); ok {
				if i, found := u.Index(e); found && !killed.Get(i) {
					bl.Comp.Set(b.ID, i)
				}
			}
		}
	}
	return bl
}
