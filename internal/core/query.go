package core

import (
	"fmt"
	"strings"

	"thetis/internal/kg"
)

// Tuple is one example entity tuple of a query: an ordered list of KG
// entities, e.g. ⟨Mitch Stetter, Milwaukee Brewers⟩.
type Tuple []kg.EntityID

// Query is a set of entity tuples, the input of semantic table search
// (Problem 2.2). Tuples may have different widths.
type Query []Tuple

// NumEntities returns the total number of entities across all tuples.
func (q Query) NumEntities() int {
	n := 0
	for _, t := range q {
		n += len(t)
	}
	return n
}

// DistinctEntities returns the deduplicated entities of the query, in first
// occurrence order.
func (q Query) DistinctEntities() []kg.EntityID {
	seen := make(map[kg.EntityID]bool)
	var out []kg.EntityID
	for _, t := range q {
		for _, e := range t {
			if !seen[e] {
				seen[e] = true
				out = append(out, e)
			}
		}
	}
	return out
}

// ParseQuery resolves a textual query into entity tuples. Each line is one
// tuple; entities are separated by "|" and resolved first as URIs and then
// as labels (kg.Graph.LookupLabel: case and surrounding whitespace ignored,
// lowest ID among duplicates), so the cost is O(mentions) whatever the size
// of the graph. Unresolvable mentions are skipped (query entities not in
// the KG are ignored, per Section 2.4); an entirely unresolvable tuple is
// dropped. The returned error is non-nil only when no tuple survives.
func ParseQuery(g *kg.Graph, text string) (Query, error) {
	var q Query
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var tuple Tuple
		for _, mention := range strings.Split(line, "|") {
			mention = strings.TrimSpace(mention)
			if mention == "" {
				continue
			}
			e, ok := g.Lookup(mention)
			if !ok {
				e, ok = g.LookupLabel(mention)
			}
			if ok {
				tuple = append(tuple, e)
			}
		}
		if len(tuple) > 0 {
			q = append(q, tuple)
		}
	}
	if len(q) == 0 {
		return nil, fmt.Errorf("core: no query tuple could be resolved against the KG")
	}
	return q, nil
}
