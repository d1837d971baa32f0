package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewIsEmpty(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 1000} {
		v := New(n)
		if v.Len() != n {
			t.Errorf("New(%d).Len() = %d", n, v.Len())
		}
		if !v.IsEmpty() || v.Count() != 0 {
			t.Errorf("New(%d) not empty", n)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGetClear(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Get(i) {
			t.Fatalf("bit %d set in fresh vector", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		v.Clear(i)
		if v.Get(i) {
			t.Fatalf("bit %d still set after Clear", i)
		}
	}
}

func TestSetBool(t *testing.T) {
	v := New(10)
	v.SetBool(3, true)
	if !v.Get(3) {
		t.Fatal("SetBool true failed")
	}
	v.SetBool(3, false)
	if v.Get(3) {
		t.Fatal("SetBool false failed")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	cases := []func(*Vector){
		func(v *Vector) { v.Get(-1) },
		func(v *Vector) { v.Get(10) },
		func(v *Vector) { v.Set(10) },
		func(v *Vector) { v.Clear(-1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f(New(10))
		}()
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("And with mismatched lengths did not panic")
		}
	}()
	New(10).And(New(11))
}

func TestSetAllTrim(t *testing.T) {
	// SetAll on a length that is not a multiple of 64 must not set bits
	// beyond Len; Count would reveal them.
	for _, n := range []int{1, 5, 63, 64, 65, 100} {
		v := New(n)
		v.SetAll()
		if v.Count() != n {
			t.Errorf("SetAll on len %d: Count = %d", n, v.Count())
		}
		v.Not()
		if !v.IsEmpty() {
			t.Errorf("Not after SetAll on len %d not empty: %v", n, v)
		}
	}
}

func TestBooleanOps(t *testing.T) {
	a := FromIndices(8, 0, 1, 2, 3)
	b := FromIndices(8, 2, 3, 4, 5)

	and := a.Copy()
	and.And(b)
	if got, want := and.String(), "{2, 3}"; got != want {
		t.Errorf("And = %s, want %s", got, want)
	}

	or := a.Copy()
	or.Or(b)
	if got, want := or.String(), "{0, 1, 2, 3, 4, 5}"; got != want {
		t.Errorf("Or = %s, want %s", got, want)
	}

	andNot := a.Copy()
	andNot.AndNot(b)
	if got, want := andNot.String(), "{0, 1}"; got != want {
		t.Errorf("AndNot = %s, want %s", got, want)
	}

	not := a.Copy()
	not.Not()
	if got, want := not.String(), "{4, 5, 6, 7}"; got != want {
		t.Errorf("Not = %s, want %s", got, want)
	}
}

func TestChangeReporting(t *testing.T) {
	a := FromIndices(64, 1, 2)
	b := FromIndices(64, 2, 3)
	if !a.Or(b) {
		t.Error("Or adding a bit reported no change")
	}
	if a.Or(b) {
		t.Error("idempotent Or reported change")
	}
	if !a.And(b) {
		t.Error("And removing bits reported no change")
	}
	if a.And(b) {
		t.Error("idempotent And reported change")
	}
	c := a.Copy()
	if a.CopyFrom(c) {
		t.Error("CopyFrom identical reported change")
	}
	c.Set(40)
	if !a.CopyFrom(c) {
		t.Error("CopyFrom differing reported no change")
	}
}

func TestSubsetIntersect(t *testing.T) {
	a := FromIndices(70, 1, 65)
	b := FromIndices(70, 1, 2, 65)
	if !a.SubsetOf(b) {
		t.Error("a should be subset of b")
	}
	if b.SubsetOf(a) {
		t.Error("b should not be subset of a")
	}
	if !a.Intersects(b) {
		t.Error("a should intersect b")
	}
	if a.Intersects(FromIndices(70, 3, 66)) {
		t.Error("disjoint vectors reported intersecting")
	}
	empty := New(70)
	if !empty.SubsetOf(a) {
		t.Error("empty not subset")
	}
}

func TestForEachIndices(t *testing.T) {
	want := []int{0, 5, 63, 64, 99}
	v := FromIndices(100, want...)
	got := v.Indices()
	if len(got) != len(want) {
		t.Fatalf("Indices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices = %v, want %v", got, want)
		}
	}
}

func TestNextSet(t *testing.T) {
	v := FromIndices(130, 3, 64, 129)
	cases := []struct{ from, want int }{
		{-5, 3}, {0, 3}, {3, 3}, {4, 64}, {64, 64}, {65, 129}, {129, 129}, {130, -1},
	}
	for _, c := range cases {
		if got := v.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if got := New(0).NextSet(0); got != -1 {
		t.Errorf("NextSet on empty = %d", got)
	}
}

func TestStringForms(t *testing.T) {
	v := FromIndices(4, 0, 2)
	if got := v.String(); got != "{0, 2}" {
		t.Errorf("String = %q", got)
	}
	if got := v.BitString(); got != "1010" {
		t.Errorf("BitString = %q", got)
	}
	if got := New(3).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

func TestCopyIndependent(t *testing.T) {
	a := FromIndices(65, 1, 64)
	b := a.Copy()
	b.Set(2)
	if a.Get(2) {
		t.Error("Copy shares storage")
	}
	if !a.Equal(FromIndices(65, 1, 64)) {
		t.Error("original mutated")
	}
}

func TestEqualDifferentLengths(t *testing.T) {
	if New(5).Equal(New(6)) {
		t.Error("vectors of different length reported equal")
	}
}

// refSet is a map-based reference model for property testing.
type refSet map[int]bool

func randomPair(r *rand.Rand) (*Vector, refSet) {
	n := 1 + r.Intn(200)
	v := New(n)
	ref := refSet{}
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			v.Set(i)
			ref[i] = true
		}
	}
	return v, ref
}

func agrees(v *Vector, ref refSet) bool {
	if v.Count() != len(ref) {
		return false
	}
	for i := 0; i < v.Len(); i++ {
		if v.Get(i) != ref[i] {
			return false
		}
	}
	return true
}

func TestQuickAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		a, ra := New(n), refSet{}
		b, rb := New(n), refSet{}
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				a.Set(i)
				ra[i] = true
			}
			if r.Intn(2) == 0 {
				b.Set(i)
				rb[i] = true
			}
		}
		and := a.Copy()
		and.And(b)
		randRef := refSet{}
		for i := range ra {
			if rb[i] {
				randRef[i] = true
			}
		}
		if !agrees(and, randRef) {
			return false
		}
		or := a.Copy()
		or.Or(b)
		rorRef := refSet{}
		for i := range ra {
			rorRef[i] = true
		}
		for i := range rb {
			rorRef[i] = true
		}
		if !agrees(or, rorRef) {
			return false
		}
		diff := a.Copy()
		diff.AndNot(b)
		rdiff := refSet{}
		for i := range ra {
			if !rb[i] {
				rdiff[i] = true
			}
		}
		return agrees(diff, rdiff)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	// ¬(a ∧ b) == ¬a ∨ ¬b within the universe.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, _ := randomPair(r)
		b := New(a.Len())
		for i := 0; i < b.Len(); i++ {
			if r.Intn(2) == 0 {
				b.Set(i)
			}
		}
		lhs := a.Copy()
		lhs.And(b)
		lhs.Not()
		na, nb := a.Copy(), b.Copy()
		na.Not()
		nb.Not()
		na.Or(nb)
		return lhs.Equal(na)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickNextSetMatchesIndices(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v, _ := randomPair(r)
		var got []int
		for i := v.NextSet(0); i >= 0; i = v.NextSet(i + 1) {
			got = append(got, i)
		}
		want := v.Indices()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3, 70)
	if m.Rows() != 3 || m.Cols() != 70 {
		t.Fatalf("dims = %d×%d", m.Rows(), m.Cols())
	}
	m.Set(0, 1)
	m.Set(1, 65)
	m.Set(2, 1)
	if !m.Get(0, 1) || !m.Get(1, 65) || m.Get(0, 0) {
		t.Fatal("Get/Set mismatch")
	}
	m.SetBool(0, 2, true)
	m.SetBool(0, 2, false)
	if m.Get(0, 2) {
		t.Fatal("SetBool false failed")
	}
	m.Clear(0, 1)
	if m.Get(0, 1) {
		t.Fatal("Clear failed")
	}
	col := m.Column(1)
	if col.Len() != 3 || !col.Get(2) || col.Get(0) {
		t.Fatalf("Column = %v", col)
	}
}

func TestMatrixCopyEqual(t *testing.T) {
	m := NewMatrix(2, 10)
	m.Set(1, 3)
	c := m.Copy()
	if !m.Equal(c) {
		t.Fatal("copy not equal")
	}
	c.Set(0, 0)
	if m.Equal(c) {
		t.Fatal("mutated copy still equal")
	}
	if m.Get(0, 0) {
		t.Fatal("copy shares storage")
	}
	if m.Equal(NewMatrix(2, 11)) || m.Equal(NewMatrix(3, 10)) {
		t.Fatal("dimension mismatch reported equal")
	}
}

func TestMatrixRowShared(t *testing.T) {
	m := NewMatrix(2, 8)
	m.Row(0).Set(5)
	if !m.Get(0, 5) {
		t.Fatal("Row is not a live view")
	}
}

func TestMatrixBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Row out of range did not panic")
		}
	}()
	NewMatrix(2, 2).Row(2)
}

func BenchmarkOr1024(b *testing.B) {
	x := New(1024)
	y := New(1024)
	for i := 0; i < 1024; i += 3 {
		y.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Or(y)
	}
}

func TestFlatMatrixLayout(t *testing.T) {
	m := NewMatrix(5, 130)
	m.Set(0, 0)
	m.Set(4, 129)
	m.Set(2, 64)
	if !m.Get(0, 0) || !m.Get(4, 129) || !m.Get(2, 64) || m.Get(1, 0) {
		t.Fatal("flat matrix get/set mismatch")
	}
	c := m.Copy()
	if !c.Equal(m) {
		t.Fatal("copy not equal")
	}
	c.Clear(2, 64)
	if c.Equal(m) || m.Get(2, 64) == false {
		t.Fatal("copy aliases original")
	}
	m.ClearAll()
	for i := 0; i < 5; i++ {
		if !m.Row(i).IsEmpty() {
			t.Fatalf("row %d not cleared", i)
		}
	}
	// Row must return a stable pointer into the matrix (intrusive headers).
	if m.Row(3) != m.Row(3) {
		t.Fatal("Row not stable")
	}
}
