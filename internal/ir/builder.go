package ir

import "fmt"

// Builder constructs functions programmatically. Blocks are referred to by
// name; terminator targets are resolved when Finish is called, so blocks may
// be targeted before they are declared. The first block declared is the
// entry block.
type Builder struct {
	fn   *Function
	cur  *Block
	errs []error
	// byName indexes blocks by name (the first block of a name wins, as
	// with Function.BlockByName), so lookups never scan the block list.
	byName map[string]*Block
	// ends[id] is the terminator state of the block with that ID.
	ends []blockEnd
}

// blockEnd records whether a block's terminator is set, and the target
// names Finish resolves.
type blockEnd struct {
	set     bool
	targets [2]string
}

// NewBuilder starts a function with the given name and parameters.
func NewBuilder(name string, params ...string) *Builder {
	return &Builder{
		fn:     &Function{Name: name, Params: params},
		byName: make(map[string]*Block),
	}
}

func (bd *Builder) errorf(format string, args ...any) {
	bd.errs = append(bd.errs, fmt.Errorf("builder %s: "+format, append([]any{bd.fn.Name}, args...)...))
}

// Block starts (or resumes) the block with the given name and makes it
// current. Declaring the same name twice is an error unless the block has
// no terminator yet.
func (bd *Builder) Block(name string) *Builder {
	if b := bd.byName[name]; b != nil {
		if bd.ends[b.ID].set {
			bd.errorf("block %q declared twice", name)
		}
		bd.cur = b
		return bd
	}
	bd.cur = bd.addBlock(name)
	return bd
}

func (bd *Builder) addBlock(name string) *Block {
	b := bd.fn.AddBlock(name)
	bd.ends = append(bd.ends, blockEnd{})
	if _, taken := bd.byName[name]; !taken {
		bd.byName[name] = b
	}
	return b
}

func (bd *Builder) need() *Block {
	if bd.cur == nil {
		bd.errorf("statement before any block")
		bd.cur = bd.addBlock("entry")
	}
	if bd.ends[bd.cur.ID].set {
		bd.errorf("statement after terminator in block %q", bd.cur.Name)
	}
	return bd.cur
}

// BinOp appends dst = a op b to the current block.
func (bd *Builder) BinOp(dst string, op Op, a, b Operand) *Builder {
	bd.need().Append(NewBinOp(dst, op, a, b))
	return bd
}

// Copy appends dst = src to the current block.
func (bd *Builder) Copy(dst string, src Operand) *Builder {
	bd.need().Append(NewCopy(dst, src))
	return bd
}

// Print appends print v to the current block.
func (bd *Builder) Print(v Operand) *Builder {
	bd.need().Append(NewPrint(v))
	return bd
}

// Nop appends a no-op to the current block.
func (bd *Builder) Nop() *Builder {
	bd.need().Append(NewNop())
	return bd
}

func (bd *Builder) setTerm(t Terminator, then, els string) {
	b := bd.need()
	if bd.errs != nil && bd.ends[b.ID].set {
		return
	}
	b.Term = t
	bd.ends[b.ID] = blockEnd{set: true, targets: [2]string{then, els}}
	bd.cur = nil
}

// Jump ends the current block with jmp target.
func (bd *Builder) Jump(target string) *Builder {
	bd.setTerm(Terminator{Kind: Jump}, target, "")
	return bd
}

// Branch ends the current block with br cond then else.
func (bd *Builder) Branch(cond Operand, then, els string) *Builder {
	bd.setTerm(Terminator{Kind: Branch, Cond: cond}, then, els)
	return bd
}

// Ret ends the current block with ret v.
func (bd *Builder) Ret(v Operand) *Builder {
	bd.setTerm(Terminator{Kind: Ret, HasVal: true, Val: v}, "", "")
	return bd
}

// RetVoid ends the current block with a bare ret.
func (bd *Builder) RetVoid() *Builder {
	bd.setTerm(Terminator{Kind: Ret}, "", "")
	return bd
}

// Finish resolves targets, recomputes CFG metadata, validates, and returns
// the function. It returns an error if construction or validation failed.
func (bd *Builder) Finish() (*Function, error) {
	for _, b := range bd.fn.Blocks {
		end := bd.ends[b.ID]
		if !end.set {
			continue
		}
		tgt := end.targets
		switch b.Term.Kind {
		case Jump:
			t := bd.byName[tgt[0]]
			if t == nil {
				bd.errorf("block %q jumps to undefined block %q", b.Name, tgt[0])
				continue
			}
			b.Term.Then = t
		case Branch:
			t := bd.byName[tgt[0]]
			e := bd.byName[tgt[1]]
			if t == nil || e == nil {
				bd.errorf("block %q branches to undefined block", b.Name)
				continue
			}
			b.Term.Then, b.Term.Else = t, e
		}
	}
	for _, b := range bd.fn.Blocks {
		if !bd.ends[b.ID].set {
			bd.errorf("block %q has no terminator", b.Name)
		}
	}
	if len(bd.errs) > 0 {
		return nil, bd.errs[0]
	}
	bd.fn.Recompute()
	if err := bd.fn.Validate(); err != nil {
		return nil, err
	}
	return bd.fn, nil
}

// MustFinish is Finish that panics on error; for tests and examples.
func (bd *Builder) MustFinish() *Function {
	f, err := bd.Finish()
	if err != nil {
		panic(err)
	}
	return f
}
