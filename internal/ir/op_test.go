package ir

import (
	"testing"
	"testing/quick"
)

func TestOpcodeStrings(t *testing.T) {
	cases := map[Opcode]string{
		Nop: "nop", Const: "const", Copy: "copy", Add: "add", Sub: "sub",
		Mul: "mul", Div: "div", Load: "load", Store: "store", CJ: "cj",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Opcode(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestRelationEval(t *testing.T) {
	cases := []struct {
		r    Relation
		a, b int64
		want bool
	}{
		{Lt, 1, 2, true}, {Lt, 2, 2, false},
		{Le, 2, 2, true}, {Le, 3, 2, false},
		{Eq, 5, 5, true}, {Eq, 5, 6, false},
		{Ne, 5, 6, true}, {Ne, 5, 5, false},
		{Gt, 3, 2, true}, {Gt, 2, 3, false},
		{Ge, 2, 2, true}, {Ge, 1, 2, false},
	}
	for _, c := range cases {
		if got := c.r.Eval(c.a, c.b); got != c.want {
			t.Errorf("(%d %s %d) = %v, want %v", c.a, c.r, c.b, got, c.want)
		}
	}
}

func TestRelationEvalComplementary(t *testing.T) {
	// Lt/Ge and Le/Gt and Eq/Ne are complementary on all inputs.
	f := func(a, b int64) bool {
		return Lt.Eval(a, b) != Ge.Eval(a, b) &&
			Le.Eval(a, b) != Gt.Eval(a, b) &&
			Eq.Eval(a, b) != Ne.Eval(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemRefAlias(t *testing.T) {
	a, b := Array(1), Array(2)
	r1 := Reg(7)
	cases := []struct {
		x, y MemRef
		want bool
	}{
		{MemRef{Array: a, Index: 3}, MemRef{Array: a, Index: 3}, true},
		{MemRef{Array: a, Index: 3}, MemRef{Array: a, Index: 4}, false},
		{MemRef{Array: a, Index: 3}, MemRef{Array: b, Index: 3}, false},
		{MemRef{Array: a, IndexReg: r1}, MemRef{Array: a, Index: 9}, true},
		{MemRef{Array: a, IndexReg: r1}, MemRef{Array: b, IndexReg: r1}, false},
		{MemRef{}, MemRef{Array: a, Index: 1}, false},
	}
	for _, c := range cases {
		if got := c.x.MayAlias(c.y); got != c.want {
			t.Errorf("MayAlias(%v, %v) = %v, want %v", c.x, c.y, got, c.want)
		}
		if got := c.y.MayAlias(c.x); got != c.want {
			t.Errorf("MayAlias not symmetric for (%v, %v)", c.x, c.y)
		}
	}
}

func TestOpUsesAndDef(t *testing.T) {
	add := &Op{Kind: Add, Dst: 1, Src: [2]Reg{2, 3}}
	if add.Def() != 1 {
		t.Errorf("add.Def() = %d, want 1", add.Def())
	}
	uses := add.Uses(nil)
	if len(uses) != 2 || uses[0] != 2 || uses[1] != 3 {
		t.Errorf("add.Uses() = %v, want [2 3]", uses)
	}

	addi := &Op{Kind: Add, Dst: 1, Src: [2]Reg{2, 99}, Imm: 5, BImm: true}
	if u := addi.Uses(nil); len(u) != 1 || u[0] != 2 {
		t.Errorf("addi.Uses() = %v, want [2]", u)
	}

	st := &Op{Kind: Store, Src: [2]Reg{4}, Mem: MemRef{Array: 1, IndexReg: 5}}
	if st.Def() != NoReg {
		t.Errorf("store defines %d, want none", st.Def())
	}
	if u := st.Uses(nil); len(u) != 2 || u[0] != 4 || u[1] != 5 {
		t.Errorf("store.Uses() = %v, want [4 5]", u)
	}

	cj := &Op{Kind: CJ, Src: [2]Reg{6, 7}, Rel: Lt}
	if cj.Def() != NoReg {
		t.Errorf("cj defines %d, want none", cj.Def())
	}
	if !cj.ReadsReg(6) || !cj.ReadsReg(7) || cj.ReadsReg(8) {
		t.Error("cj.ReadsReg wrong")
	}
}

func TestReplaceUse(t *testing.T) {
	op := &Op{Kind: Mul, Dst: 1, Src: [2]Reg{2, 2}}
	op.ReplaceUse(2, 9)
	if op.Src[0] != 9 || op.Src[1] != 9 {
		t.Errorf("ReplaceUse failed: %v", op.Src)
	}
	ld := &Op{Kind: Load, Dst: 1, Mem: MemRef{Array: 1, IndexReg: 3}}
	ld.ReplaceUse(3, 4)
	if ld.Mem.IndexReg != 4 {
		t.Errorf("ReplaceUse on load index failed: %v", ld.Mem)
	}
	// Dst is never a use.
	op2 := &Op{Kind: Add, Dst: 5, Src: [2]Reg{1, 2}}
	op2.ReplaceUse(5, 9)
	if op2.Dst != 5 {
		t.Error("ReplaceUse must not rewrite the destination")
	}
}

func TestOpEval(t *testing.T) {
	regs := map[Reg]int64{1: 10, 2: 3}
	get := func(r Reg) int64 { return regs[r] }
	mem := func(m MemRef) int64 { return 100 + m.Index }
	cases := []struct {
		op   Op
		want int64
	}{
		{Op{Kind: Const, Imm: 42}, 42},
		{Op{Kind: Copy, Src: [2]Reg{1}}, 10},
		{Op{Kind: Add, Src: [2]Reg{1, 2}}, 13},
		{Op{Kind: Sub, Src: [2]Reg{1, 2}}, 7},
		{Op{Kind: Mul, Src: [2]Reg{1, 2}}, 30},
		{Op{Kind: Div, Src: [2]Reg{1, 2}}, 3},
		{Op{Kind: Div, Src: [2]Reg{1}, Imm: 0, BImm: true}, 0}, // div by zero yields 0
		{Op{Kind: Add, Src: [2]Reg{1}, Imm: -4, BImm: true}, 6},
		{Op{Kind: Load, Mem: MemRef{Array: 1, Index: 7}}, 107},
	}
	for _, c := range cases {
		if got := c.op.Eval(get, mem); got != c.want {
			t.Errorf("%v.Eval() = %d, want %d", c.op.String(), got, c.want)
		}
	}
	cj := Op{Kind: CJ, Src: [2]Reg{2}, Imm: 5, BImm: true, Rel: Lt}
	if !cj.CondHolds(get) {
		t.Error("cj 3 < 5 should hold")
	}
}

func TestClonePreservesIdentity(t *testing.T) {
	op := &Op{ID: 5, Origin: 3, Iter: 2, Kind: Add, Dst: 1, Src: [2]Reg{2, 3}}
	c := op.Clone(99, true)
	if c.ID != 99 || !c.Frozen {
		t.Errorf("clone id/frozen wrong: %+v", c)
	}
	if c.Origin != 3 || c.Iter != 2 || c.Kind != Add {
		t.Errorf("clone lost identity: %+v", c)
	}
	c.Src[0] = 42
	if op.Src[0] != 2 {
		t.Error("clone shares storage with original")
	}
}

func TestAlloc(t *testing.T) {
	a := NewAlloc()
	r1 := a.Reg()
	r2 := a.Reg()
	if r1 == r2 || r1 == NoReg || r2 == NoReg {
		t.Fatalf("bad registers %d %d", r1, r2)
	}
	ar1 := a.Array("X")
	ar2 := a.Array("X")
	if ar1 != ar2 {
		t.Error("Array not idempotent per name")
	}
	if a.Array("Y") == ar1 {
		t.Error("distinct arrays collide")
	}
	if a.OpID() == a.OpID() {
		t.Error("OpID not unique")
	}
	if r3 := a.Reg(); r3 != 3 {
		t.Errorf("third register = %d, want 3", r3)
	}
}
