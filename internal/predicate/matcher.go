package predicate

import "repro/internal/pipeline"

// Matcher is a conjunction compiled against one space for repeated
// satisfaction tests. Compile resolves every parameter name once and, for
// each triple, tabulates Triple.Holds over the values interned at compile
// time, so matching an instance of that space costs one code lookup and
// one table read per triple: no name lookup, no value comparison.
//
// Match agrees with Conjunction.Satisfied on every instance, because each
// table entry is Holds of the value its code stands for (NaN and Neq
// included). Codes interned after Compile fall back to Holds on the value,
// a triple naming a parameter the space lacks never matches, and an
// instance of another space is tested with Satisfied.
type Matcher struct {
	conj  Conjunction
	space *pipeline.Space
	terms []term
	holds []bool // every term's table, back to back
}

// term compiles the conjunction's triple of the same position:
// holds[off+c] is its verdict on code c of parameter param, for c < n.
type term struct {
	param  int // -1 when the space has no such parameter
	off, n int
}

// Compile resolves the conjunction against s. It allocates two slices
// and no maps; the conjunction is kept, not copied, so it must not be
// modified while the matcher is in use.
func (c Conjunction) Compile(s *pipeline.Space) Matcher {
	m := Matcher{conj: c, space: s, terms: make([]term, len(c))}
	total := 0
	for k, t := range c {
		i, ok := s.Index(t.Param)
		if !ok {
			m.terms[k] = term{param: -1}
			continue
		}
		// Holds panics on an invalid comparator and on an ordering
		// comparator over a categorical value. Such a triple gets no table:
		// the Holds fallback panics only where Satisfied would.
		n := 0
		switch t.Cmp {
		case Eq, Neq:
			n = s.NumCodes(i)
		case Le, Gt:
			if s.At(i).Kind == pipeline.Ordinal && t.Value.Kind() == pipeline.Ordinal {
				n = s.NumCodes(i)
			}
		}
		m.terms[k] = term{param: i, off: total, n: n}
		total += n
	}
	m.holds = make([]bool, total)
	for k, tm := range m.terms {
		if tm.n == 0 {
			continue
		}
		// Codes only grow, so the table now covers at least the n codes
		// counted above.
		vals := s.InternedValues(tm.param)
		for code := 0; code < tm.n; code++ {
			m.holds[tm.off+code] = c[k].Holds(vals[code])
		}
	}
	return m
}

// Match reports whether the instance satisfies the compiled conjunction,
// exactly as Conjunction.Satisfied does.
//
//bugdoc:hotpath
func (m Matcher) Match(in pipeline.Instance) bool {
	if in.Space() != m.space {
		return m.conj.Satisfied(in)
	}
	for k, tm := range m.terms {
		if tm.param < 0 {
			return false
		}
		if c := int(in.Code(tm.param)); c < tm.n {
			if !m.holds[tm.off+c] {
				return false
			}
		} else if !m.conj[k].Holds(in.Value(tm.param)) {
			return false
		}
	}
	return true
}
