package main

import (
	"fmt"
	"strings"

	"adc"
	"adc/internal/dataset"
)

// countViolations counts the ordered pairs (t, t'), t ≠ t', of rel that
// violate the DC, without the library's executors: it groups rows by
// the DC's same-column equality predicates (t.A = t'.A) and evaluates
// the other predicates pair by pair within each group. It is the
// benchmark's oracle for every verdict the server returns; a test pins
// it to the library's refutation scan.
func countViolations(rel *adc.Relation, dc string) (int64, error) {
	spec, err := adc.ParseDCSpec(dc)
	if err != nil {
		return 0, err
	}
	var keys []*adc.Column
	var single, cross []pred
	for _, s := range spec {
		p, err := resolve(rel, s)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", dc, err)
		}
		switch {
		case !s.Cross:
			single = append(single, p)
		case s.Op == adc.Eq && s.A == s.B:
			keys = append(keys, p.a)
		default:
			cross = append(cross, p)
		}
	}

	groups := make(map[string][]int)
	var key strings.Builder
	for i := 0; i < rel.NumRows(); i++ {
		key.Reset()
		for _, c := range keys {
			key.WriteString(c.ValueString(i))
			key.WriteByte(0)
		}
		groups[key.String()] = append(groups[key.String()], i)
	}

	var count int64
	for _, g := range groups {
		for _, i := range g {
			if !holdsAll(single, i, i) {
				continue
			}
			if len(cross) == 0 {
				count += int64(len(g) - 1)
				continue
			}
			for _, j := range g {
				if j != i && holdsAll(cross, i, j) {
					count++
				}
			}
		}
	}
	return count, nil
}

// pred is one resolved predicate: t.a op t'.b (t.a op t.b when single).
type pred struct {
	a, b *adc.Column
	op   adc.Operator
}

func resolve(rel *adc.Relation, s adc.Spec) (pred, error) {
	a, b := rel.Column(s.A), rel.Column(s.B)
	if a == nil || b == nil {
		return pred{}, fmt.Errorf("no column %q or %q", s.A, s.B)
	}
	if a.Type.Numeric() != b.Type.Numeric() {
		return pred{}, fmt.Errorf("%s compares a number with a string", s)
	}
	return pred{a: a, b: b, op: s.Op}, nil
}

func holdsAll(ps []pred, i, j int) bool {
	for _, p := range ps {
		if !p.holds(i, j) {
			return false
		}
	}
	return true
}

// holds evaluates the predicate on rows i (for t) and j (for t').
func (p pred) holds(i, j int) bool {
	var c int
	switch {
	case p.a.Type == dataset.Int && p.b.Type == dataset.Int:
		c = cmpOrdered(p.a.Ints[i], p.b.Ints[j])
	case p.a.Type.Numeric():
		c = cmpOrdered(p.a.Num(i), p.b.Num(j))
	default:
		c = strings.Compare(p.a.Strings[i], p.b.Strings[j])
	}
	switch p.op {
	case adc.Eq:
		return c == 0
	case adc.Neq:
		return c != 0
	case adc.Lt:
		return c < 0
	case adc.Leq:
		return c <= 0
	case adc.Gt:
		return c > 0
	default:
		return c >= 0
	}
}

func cmpOrdered[T int64 | float64](x, y T) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}
