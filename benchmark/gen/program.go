// Package gen holds what both halves of the benchmark share: the seeded
// generators of the five workloads, the independent oracle that says
// what each answer must be, and the span record both halves write. It
// imports the standard library only, so no refactor of the program under
// test can change the inputs or the expected answers.
package gen

import (
	"fmt"
	"strings"
)

// Atom is a predicate applied to terms. A term that starts with an upper
// case letter or '_' is a variable ("_" alone is anonymous); anything
// else is a constant.
type Atom struct {
	Pred string
	Args []string
}

// Rule is Head :- Body.
type Rule struct {
	Head Atom
	Body []Atom
}

// Program is what the child process is handed as a source file: rules,
// ground facts and an optional default goal.
type Program struct {
	Rules []Rule
	Facts []Atom
	Goal  *Atom
}

// IsVar reports whether a term is a variable.
func IsVar(t string) bool {
	return t != "" && (t[0] == '_' || (t[0] >= 'A' && t[0] <= 'Z'))
}

func (a Atom) String() string {
	return a.Pred + "(" + strings.Join(a.Args, ",") + ")"
}

func (r Rule) String() string {
	body := make([]string, len(r.Body))
	for i, b := range r.Body {
		body[i] = b.String()
	}
	return r.Head.String() + " :- " + strings.Join(body, ", ") + "."
}

// Source renders the program in the syntax `existdlog serve` reads.
func (p *Program) Source() string {
	var sb strings.Builder
	for _, r := range p.Rules {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	if p.Goal != nil {
		sb.WriteString("?- " + p.Goal.String() + ".\n")
	}
	for _, f := range p.Facts {
		sb.WriteString(f.String())
		sb.WriteString(".\n")
	}
	return sb.String()
}

// ParseAtom reads "pred(t1,t2)" with unquoted terms; the generators only
// ever write that subset.
func ParseAtom(s string) (Atom, error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open <= 0 || !strings.HasSuffix(s, ")") {
		return Atom{}, fmt.Errorf("gen: malformed atom %q", s)
	}
	a := Atom{Pred: s[:open]}
	for _, t := range strings.Split(s[open+1:len(s)-1], ",") {
		t = strings.TrimSpace(t)
		if t == "" {
			return Atom{}, fmt.Errorf("gen: empty term in %q", s)
		}
		a.Args = append(a.Args, t)
	}
	return a, nil
}

// MustAtom is ParseAtom for the literal atoms in this package.
func MustAtom(s string) Atom {
	a, err := ParseAtom(s)
	if err != nil {
		panic(err)
	}
	return a
}

// MustRules parses one "head :- b1, b2." rule per non-empty line.
func MustRules(src string) []Rule {
	var out []Rule
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSuffix(strings.TrimSpace(line), ".")
		if line == "" {
			continue
		}
		head, body, ok := strings.Cut(line, ":-")
		if !ok {
			panic(fmt.Sprintf("gen: rule without body: %q", line))
		}
		r := Rule{Head: MustAtom(head)}
		// Split the body on the commas between atoms, not inside them.
		depth, start := 0, 0
		for i := 0; i <= len(body); i++ {
			if i < len(body) {
				switch body[i] {
				case '(':
					depth++
				case ')':
					depth--
				}
				if body[i] != ',' || depth != 0 {
					continue
				}
			}
			r.Body = append(r.Body, MustAtom(body[start:i]))
			start = i + 1
		}
		out = append(out, r)
	}
	return out
}
