package ast

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTermString(t *testing.T) {
	if got := V("X").String(); got != "X" {
		t.Errorf("V(X).String() = %q", got)
	}
	if got := C("alice").String(); got != "alice" {
		t.Errorf("C(alice).String() = %q", got)
	}
	if got := (Term{}).String(); got != "_" {
		t.Errorf("zero Term String() = %q", got)
	}
}

func TestTermIsAnon(t *testing.T) {
	cases := []struct {
		t    Term
		want bool
	}{
		{V("_"), true},
		{V("_G1"), true},
		{V("X"), false},
		{C("_"), false},
		{Term{}, true},
	}
	for _, c := range cases {
		if got := c.t.IsAnon(); got != c.want {
			t.Errorf("IsAnon(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestAdornmentValid(t *testing.T) {
	valid := []Adornment{"", "n", "d", "nnd", "bf", "bbff"}
	for _, a := range valid {
		if !a.Valid() {
			t.Errorf("%q should be valid", a)
		}
	}
	invalid := []Adornment{"nb", "x", "ndx", "fn"}
	for _, a := range invalid {
		if a.Valid() {
			t.Errorf("%q should be invalid", a)
		}
	}
}

func TestAdornmentCountN(t *testing.T) {
	if got := Adornment("nnd").CountN(); got != 2 {
		t.Errorf("CountN(nnd) = %d", got)
	}
	if got := Adornment("bfb").CountN(); got != 2 {
		t.Errorf("CountN(bfb) = %d", got)
	}
	if got := Adornment("ddd").CountN(); got != 0 {
		t.Errorf("CountN(ddd) = %d", got)
	}
}

func TestAdornmentCovers(t *testing.T) {
	cases := []struct {
		a1, a Adornment
		want  bool
	}{
		{"nn", "nd", true},   // d of a may be n in a1
		{"nd", "nn", false},  // n of a must be n in a1
		{"nn", "nn", true},   // identity
		{"dd", "dd", true},   // all don't-care
		{"nd", "dd", true},   // hmm: a=dd has no n's
		{"n", "nd", false},   // length mismatch
		{"nnd", "ndd", true}, // positionwise
	}
	for _, c := range cases {
		if got := c.a1.Covers(c.a); got != c.want {
			t.Errorf("Covers(%q, %q) = %v, want %v", c.a1, c.a, got, c.want)
		}
	}
}

func TestAtomKeyAndString(t *testing.T) {
	a := NewAdorned("a", "nd", V("X"), V("Y"))
	if a.Key() != "a@nd" {
		t.Errorf("Key = %q", a.Key())
	}
	if a.String() != "a@nd(X,Y)" {
		t.Errorf("String = %q", a.String())
	}
	b := NewAtom("b2")
	if b.Key() != "b2" || b.String() != "b2" {
		t.Errorf("boolean atom: key=%q str=%q", b.Key(), b.String())
	}
}

func TestRuleStringAndVariables(t *testing.T) {
	r := NewRule(NewAtom("p", V("X")), NewAtom("e", V("X"), V("Z")), NewAtom("p", V("Z")))
	want := "p(X) :- e(X,Z), p(Z)."
	if r.String() != want {
		t.Errorf("String = %q, want %q", r.String(), want)
	}
	vars := r.Variables()
	if len(vars) != 2 || vars[0] != "X" || vars[1] != "Z" {
		t.Errorf("Variables = %v", vars)
	}
}

func TestProgramDerivedAndValidate(t *testing.T) {
	p := NewProgram(
		NewAtom("p", V("X")),
		NewRule(NewAtom("p", V("X")), NewAtom("e", V("X"), V("Z")), NewAtom("p", V("Z"))),
		NewRule(NewAtom("p", V("X")), NewAtom("e", V("X"), V("Y"))),
	)
	if !p.IsDerived("p") || p.IsDerived("e") {
		t.Errorf("Derived = %v", p.Derived)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := p.RulesFor("p"); len(got) != 2 {
		t.Errorf("RulesFor(p) = %v", got)
	}
	base := p.BaseKeys()
	if len(base) != 1 || base[0] != "e" {
		t.Errorf("BaseKeys = %v", base)
	}
}

func TestValidateRejectsUnboundHeadVar(t *testing.T) {
	p := NewProgram(Atom{}, NewRule(NewAtom("p", V("X"), V("Y")), NewAtom("e", V("X"), V("Z"))))
	err := p.Validate()
	if err == nil || !strings.Contains(err.Error(), "head variable Y") {
		t.Errorf("expected unbound-head error, got %v", err)
	}
}

func TestValidateAllowsAnonHeadVar(t *testing.T) {
	// Connected-component rewrites produce heads with anonymous variables.
	p := NewProgram(Atom{}, NewRule(NewAtom("p", V("X"), V("_")), NewAtom("e", V("X"), V("Z"))))
	if err := p.Validate(); err != nil {
		t.Errorf("anonymous head variable should validate: %v", err)
	}
}

func TestValidateRejectsArityMismatch(t *testing.T) {
	p := NewProgram(Atom{},
		NewRule(NewAtom("p", V("X")), NewAtom("e", V("X"), V("Z"))),
		NewRule(NewAtom("p", V("X"), V("Y")), NewAtom("e", V("X"), V("Y"))),
	)
	if err := p.Validate(); err == nil {
		t.Error("expected arity mismatch error")
	}
}

func TestValidateAdornmentFit(t *testing.T) {
	// Post-projection: adornment longer than args, n-count must match.
	ok := NewProgram(Atom{},
		NewRule(NewAdorned("a", "nd", V("X")), NewAtom("e", V("X"), V("Y"))),
	)
	if err := ok.Validate(); err != nil {
		t.Errorf("projected adornment should validate: %v", err)
	}
	bad := NewProgram(Atom{},
		NewRule(NewAdorned("a", "nd", V("X"), V("Y"), V("Z")),
			NewAtom("e", V("X"), V("Y"), V("Z"))),
	)
	if err := bad.Validate(); err == nil {
		t.Error("expected adornment-fit error")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := NewProgram(
		NewAtom("p", V("X")),
		NewRule(NewAtom("p", V("X")), NewAtom("e", V("X"), V("Y"))),
	)
	q := p.Clone()
	q.Rules[0].Body[0].Args[0] = C("mutated")
	q.Derived["extra"] = true
	if p.Rules[0].Body[0].Args[0] != V("X") {
		t.Error("Clone shares rule storage")
	}
	if p.Derived["extra"] {
		t.Error("Clone shares Derived map")
	}
}

func TestProgramString(t *testing.T) {
	p := NewProgram(
		NewAdorned("a", "nd", V("X")),
		NewRule(NewAdorned("a", "nd", V("X")), NewAtom("p", V("X"), V("Y"))),
	)
	want := "a@nd(X) :- p(X,Y).\n?- a@nd(X).\n"
	if got := p.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// Property: Covers is reflexive and transitive over random n/d strings.
func TestCoversPreorderProperty(t *testing.T) {
	mk := func(bits uint8) Adornment {
		out := make([]byte, 4)
		for i := range out {
			if bits&(1<<uint(i)) != 0 {
				out[i] = 'n'
			} else {
				out[i] = 'd'
			}
		}
		return Adornment(out)
	}
	f := func(x, y, z uint8) bool {
		a, b, c := mk(x), mk(y), mk(z)
		if !a.Covers(a) {
			return false
		}
		if a.Covers(b) && b.Covers(c) && !a.Covers(c) {
			return false
		}
		// Covers(a1, a) should hold exactly when n-positions of a are a
		// subset of n-positions of a1.
		want := true
		for i := range b {
			if b[i] == 'n' && a[i] != 'n' {
				want = false
			}
		}
		return a.Covers(b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPredicateKeysAndHasNegation(t *testing.T) {
	p := NewProgram(
		NewAdorned("q", "n", V("X")),
		NewRule(NewAdorned("q", "n", V("X")), NewAtom("e", V("X"), V("Y"))),
		NewRule(NewAtom("s", V("X")), NewAtom("e", V("X"), V("Y")),
			Atom{Pred: "t", Args: []Term{V("X")}, Negated: true}),
	)
	keys := p.PredicateKeys()
	want := []string{"e", "q@n", "s", "t"}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Errorf("keys[%d] = %s, want %s", i, keys[i], want[i])
		}
	}
	if !p.HasNegation() {
		t.Error("HasNegation should hold")
	}
	p2 := NewProgram(Atom{}, NewRule(NewAtom("a", V("X")), NewAtom("e", V("X"))))
	if p2.HasNegation() {
		t.Error("positive program misreported")
	}
}

func TestRuleEqualAndIsUnit(t *testing.T) {
	r1 := NewRule(NewAtom("a", V("X")), NewAtom("e", V("X"), V("Y")))
	r2 := NewRule(NewAtom("a", V("X")), NewAtom("e", V("X"), V("Y")))
	r3 := NewRule(NewAtom("a", V("X")), NewAtom("e", V("X"), V("Z")))
	r4 := NewRule(NewAtom("a", V("X")), NewAtom("e", V("X"), V("Y")), NewAtom("f", V("Y")))
	if !r1.Equal(r2) || r1.Equal(r3) || r1.Equal(r4) {
		t.Error("rule equality broken")
	}
	if !r1.IsUnit() || r4.IsUnit() {
		t.Error("IsUnit broken")
	}
	// Negation distinguishes atoms.
	neg := r1.Clone()
	neg.Body[0].Negated = true
	if r1.Equal(neg) {
		t.Error("negation must distinguish rules")
	}
	if neg.Body[0].String() != "not e(X,Y)" {
		t.Errorf("negated String = %q", neg.Body[0].String())
	}
}

func TestFormatSubst(t *testing.T) {
	s := Subst{"X": C("1"), "A": V("B")}
	if got := FormatSubst(s); got != "{A=B, X=1}" {
		t.Errorf("FormatSubst = %q", got)
	}
	if got := FormatSubst(nil); got != "{}" {
		t.Errorf("FormatSubst(nil) = %q", got)
	}
}

func TestAtomArity(t *testing.T) {
	if NewAtom("p", V("X"), C("1")).Arity() != 2 || NewAtom("b").Arity() != 0 {
		t.Error("Arity broken")
	}
}

// TestValidateErrorLocation pins the location Validate names in its
// errors, which it formats only once it has found one.
func TestValidateErrorLocation(t *testing.T) {
	for _, tc := range []struct {
		p    *Program
		want string
	}{
		{NewProgram(Atom{},
			NewRule(NewAtom("p", V("X")), NewAtom("e", V("X"), V("Z"))),
			NewRule(NewAtom("p", V("X"), V("Y")), NewAtom("e", V("X"), V("Y")))),
			"rule 2 (p(X,Y) :- e(X,Y).): predicate p used with arities 1 and 2"},
		{NewProgram(Atom{}, NewRule(NewAtom("p", V("X"), V("Y")), NewAtom("e", V("X"), V("Z")))),
			"rule 1 (p(X,Y) :- e(X,Z).): head variable Y not bound in body"},
		{NewProgram(NewAtom("p", V("X"), V("Y")), NewRule(NewAtom("p", V("X")), NewAtom("e", V("X"), V("Z")))),
			"query: predicate p used with arities 1 and 2"},
	} {
		if err := tc.p.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("Validate() = %v, want %q", err, tc.want)
		}
	}
}

// TestValidateAllocs pins Validate's allocations on a valid program: the
// arity map and the body-variable set, never a formatted rule location.
func TestValidateAllocs(t *testing.T) {
	p := NewProgram(
		NewAdorned("a", "bf", C("1"), V("Y")),
		NewRule(NewAdorned("a", "bf", V("X"), V("Y")), NewAtom("e", V("X"), V("Y"))),
		NewRule(NewAdorned("a", "bf", V("X"), V("Y")), NewAtom("e", V("X"), V("Z")), NewAdorned("a", "bf", V("Z"), V("Y"))),
		NewRule(NewAtom("q", V("X")), NewAtom("e", V("X"), V("_")), Atom{Pred: "f", Args: []Term{V("X")}, Negated: true}),
	)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() { _ = p.Validate() })
	t.Logf("Validate: %v allocs/op", got)
	if got > 6 {
		t.Errorf("Validate: %v allocs/op, want at most 6", got)
	}
}
