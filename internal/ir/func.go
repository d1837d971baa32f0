package ir

import (
	"sort"
	"strconv"
)

// Function is a procedure: an ordered list of basic blocks. Blocks[0] is
// the entry block. Params are the variables defined on entry; all other
// variables are local and start undefined (reading one before writing it is
// a validation error caught by Validate's definite-assignment check only in
// tests that ask for it; the interpreter treats undefined reads as zero for
// totality).
type Function struct {
	Name   string
	Params []string
	Blocks []*Block
}

// Entry returns the entry block.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		panic("ir: function has no blocks")
	}
	return f.Blocks[0]
}

// NumBlocks returns the number of blocks.
func (f *Function) NumBlocks() int { return len(f.Blocks) }

// Recompute renumbers blocks with dense IDs in Blocks order and rebuilds
// predecessor lists. Call it after any structural mutation.
func (f *Function) Recompute() {
	for i, b := range f.Blocks {
		b.ID = i
		b.preds = b.preds[:0]
	}
	for _, b := range f.Blocks {
		for i, n := 0, b.NumSuccs(); i < n; i++ {
			s := b.Succ(i)
			s.preds = append(s.preds, b)
		}
	}
}

// BlockByName returns the block with the given name, or nil.
func (f *Function) BlockByName(name string) *Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// AddBlock appends a block with the given name and returns it. The caller
// must Recompute after wiring its edges.
func (f *Function) AddBlock(name string) *Block {
	b := &Block{Name: name, ID: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// FreshBlockName returns a block name with the given prefix that is not yet
// used in the function. It scans every block; a caller naming many blocks
// builds BlockNames once and calls FreshName instead.
func (f *Function) FreshBlockName(prefix string) string {
	return FreshName(f.BlockNames(), prefix)
}

// BlockNames returns the set of the function's block names.
func (f *Function) BlockNames() map[string]bool {
	used := make(map[string]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		used[b.Name] = true
	}
	return used
}

// FreshName returns prefix if it is not in used, else prefix followed by
// the smallest positive integer that makes it so: prefix1, prefix2, ….
func FreshName(used map[string]bool, prefix string) string {
	if !used[prefix] {
		return prefix
	}
	for i := 1; ; i++ {
		if n := prefix + strconv.Itoa(i); !used[n] {
			return n
		}
	}
}

// FreshVarName returns a variable name with the given prefix that is not
// read or written anywhere in the function.
func (f *Function) FreshVarName(prefix string) string {
	used := make(map[string]bool)
	for _, p := range f.Params {
		used[p] = true
	}
	var scratch []string
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if d := in.Defs(); d != "" {
				used[d] = true
			}
			scratch = in.UsedVars(scratch[:0])
			for _, v := range scratch {
				used[v] = true
			}
		}
		scratch = b.Term.UsedVars(scratch[:0])
		for _, v := range scratch {
			used[v] = true
		}
	}
	return FreshName(used, prefix)
}

// Vars returns every variable the function mentions (params, defs, uses) in
// sorted order.
func (f *Function) Vars() []string {
	set := make(map[string]bool)
	for _, p := range f.Params {
		set[p] = true
	}
	var scratch []string
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if d := in.Defs(); d != "" {
				set[d] = true
			}
			scratch = in.UsedVars(scratch[:0])
			for _, v := range scratch {
				set[v] = true
			}
		}
		scratch = b.Term.UsedVars(scratch[:0])
		for _, v := range scratch {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// NumInstrs returns the total statement count across all blocks,
// terminators excluded.
func (f *Function) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Clone returns a deep copy of the function. The copy shares no mutable
// state with the original and has fresh predecessor lists.
func (f *Function) Clone() *Function {
	g := &Function{Name: f.Name, Params: append([]string(nil), f.Params...)}
	m := make(map[*Block]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		nb := &Block{Name: b.Name, ID: b.ID, Instrs: append([]Instr(nil), b.Instrs...)}
		g.Blocks = append(g.Blocks, nb)
		m[b] = nb
	}
	for _, b := range f.Blocks {
		nb := m[b]
		nb.Term = b.Term
		if b.Term.Then != nil {
			nb.Term.Then = m[b.Term.Then]
		}
		if b.Term.Else != nil {
			nb.Term.Else = m[b.Term.Else]
		}
	}
	g.Recompute()
	return g
}

// String renders the function in the textual IR syntax accepted by the
// textir parser, so printing and parsing round-trip.
func (f *Function) String() string {
	return string(f.AppendText(make([]byte, 0, f.textSizeHint())))
}

// AppendText appends the function's textual form (String's result) to buf
// and returns it.
func (f *Function) AppendText(buf []byte) []byte {
	buf = append(buf, "func "...)
	buf = append(buf, f.Name...)
	buf = append(buf, '(')
	for i, p := range f.Params {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = append(buf, p...)
	}
	buf = append(buf, ") {\n"...)
	for _, blk := range f.Blocks {
		buf = append(buf, blk.Name...)
		buf = append(buf, ":\n"...)
		for _, in := range blk.Instrs {
			buf = append(buf, "  "...)
			buf = append(in.AppendText(buf), '\n')
		}
		buf = append(buf, "  "...)
		buf = append(blk.Term.AppendText(buf), '\n')
	}
	return append(buf, "}\n"...)
}

// textSizeHint estimates the length of the function's text from its shape
// so String allocates its buffer once in the common case.
func (f *Function) textSizeHint() int {
	n := 16 + len(f.Name)
	for _, p := range f.Params {
		n += len(p) + 2
	}
	for _, b := range f.Blocks {
		n += 2*len(b.Name) + 16 + 16*len(b.Instrs)
	}
	return n
}
