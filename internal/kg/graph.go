// Package kg implements an in-memory labeled directed knowledge graph with a
// type taxonomy, the substrate Thetis searches against. It plays the role of
// the DBpedia snapshot used in the paper (the knowledge graph of
// Definition 2.1): entities carry human-readable labels, sets of types at
// multiple granularities, and labeled relation edges to other entities.
//
// All identifiers are interned to dense integer IDs so that the hot paths in
// similarity computation and LSH indexing operate on machine words; URI and
// label strings only appear at the API boundary.
package kg

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// EntityID identifies an entity node in the graph. IDs are dense and start
// at 0, so they can index slices directly.
type EntityID uint32

// TypeID identifies an entity type (class) in the taxonomy.
type TypeID uint32

// PredicateID identifies an edge label (relation).
type PredicateID uint32

// InvalidEntity is returned by lookups that fail to resolve an entity.
const InvalidEntity = EntityID(^uint32(0))

// InvalidType is returned by lookups that fail to resolve a type.
const InvalidType = TypeID(^uint32(0))

// Edge is one labeled directed edge between two entities.
type Edge struct {
	Predicate PredicateID
	Object    EntityID
}

// entity is the internal per-node record.
type entity struct {
	uri   string
	label string
	types []TypeID // sorted, deduplicated
	out   []Edge
	in    []Edge
}

// Graph is a labeled directed multigraph G = (N, E, lambda) with a type
// taxonomy. It is append-only: entities, types, and edges may be added but
// never removed, which keeps all issued IDs valid for the life of the graph.
// A Graph is safe for concurrent readers once construction has finished.
type Graph struct {
	entities []entity
	uriIndex map[string]EntityID

	// labelIndex maps foldLabel(Label(e)) to the lowest entity carrying that
	// folded label. labelHeirs holds a key's other carriers while its owner
	// is still unlabelled: such a key is the owner's folded URI, the one kind
	// AddEntity withdraws (when the label arrives), and it then passes to
	// the lowest heir. A labelled owner is never displaced by a higher ID,
	// so its key needs no heirs and real graphs keep this map almost empty.
	labelIndex map[string]EntityID
	labelHeirs map[string][]EntityID

	types     []typeInfo
	typeIndex map[string]TypeID

	predicates []string
	predIndex  map[string]PredicateID

	edgeCount int
}

type typeInfo struct {
	uri     string
	label   string
	parents []TypeID // direct supertypes in the taxonomy
}

// NewGraph returns an empty knowledge graph.
func NewGraph() *Graph {
	return &Graph{
		uriIndex:   make(map[string]EntityID),
		labelIndex: make(map[string]EntityID),
		labelHeirs: make(map[string][]EntityID),
		typeIndex:  make(map[string]TypeID),
		predIndex:  make(map[string]PredicateID),
	}
}

// AddEntity interns an entity by URI and returns its ID. Re-adding an
// existing URI returns the existing ID; a non-empty label overwrites an
// empty one. Both branches keep the label index behind LookupLabel current
// in O(1) amortised: a new entity is indexed under its folded Label (the
// URI when label is empty), and a label arriving later moves the entity
// from its folded-URI key to its folded-label key.
func (g *Graph) AddEntity(uri, label string) EntityID {
	if id, ok := g.uriIndex[uri]; ok {
		if label != "" && g.entities[id].label == "" {
			g.unindexLabel(foldLabel(uri), id)
			g.entities[id].label = label
			g.indexLabel(foldLabel(label), id)
		}
		return id
	}
	id := EntityID(len(g.entities))
	g.entities = append(g.entities, entity{uri: uri, label: label})
	g.uriIndex[uri] = id
	g.indexLabel(foldLabel(g.Label(id)), id)
	return id
}

// foldLabel is the label index's one normalisation rule.
func foldLabel(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

// indexLabel records id as a carrier of key: the lowest carrier owns it.
func (g *Graph) indexLabel(key string, id EntityID) {
	owner, ok := g.labelIndex[key]
	if !ok {
		g.labelIndex[key] = id
		return
	}
	lo, hi := min(owner, id), max(owner, id)
	g.labelIndex[key] = lo
	if g.entities[lo].label == "" {
		g.labelHeirs[key] = append(g.labelHeirs[key], hi)
	} else {
		delete(g.labelHeirs, key)
	}
}

// unindexLabel withdraws the still unlabelled id from key, its folded URI.
// If id owned the key, the heirs are re-indexed so the lowest inherits it.
func (g *Graph) unindexLabel(key string, id EntityID) {
	heirs := g.labelHeirs[key]
	if g.labelIndex[key] != id {
		if i := slices.Index(heirs, id); i >= 0 {
			g.labelHeirs[key] = slices.Delete(heirs, i, i+1)
		}
		return
	}
	delete(g.labelIndex, key)
	delete(g.labelHeirs, key)
	for _, h := range heirs {
		g.indexLabel(key, h)
	}
}

// AddType interns a type by URI and returns its ID.
func (g *Graph) AddType(uri, label string) TypeID {
	if id, ok := g.typeIndex[uri]; ok {
		if label != "" && g.types[id].label == "" {
			g.types[id].label = label
		}
		return id
	}
	id := TypeID(len(g.types))
	g.types = append(g.types, typeInfo{uri: uri, label: label})
	g.typeIndex[uri] = id
	return id
}

// AddSubtype records that child is a direct subtype of parent in the
// taxonomy (e.g. BaseballPlayer -> Athlete).
func (g *Graph) AddSubtype(child, parent TypeID) {
	ti := &g.types[child]
	for _, p := range ti.parents {
		if p == parent {
			return
		}
	}
	ti.parents = append(ti.parents, parent)
}

// AddPredicate interns an edge label and returns its ID.
func (g *Graph) AddPredicate(uri string) PredicateID {
	if id, ok := g.predIndex[uri]; ok {
		return id
	}
	id := PredicateID(len(g.predicates))
	g.predicates = append(g.predicates, uri)
	g.predIndex[uri] = id
	return id
}

// AssignType annotates entity e with type t. Duplicate assignments are
// ignored; the stored type set stays sorted.
func (g *Graph) AssignType(e EntityID, t TypeID) {
	ts := g.entities[e].types
	i := sort.Search(len(ts), func(i int) bool { return ts[i] >= t })
	if i < len(ts) && ts[i] == t {
		return
	}
	ts = append(ts, 0)
	copy(ts[i+1:], ts[i:])
	ts[i] = t
	g.entities[e].types = ts
}

// AddEdge inserts the labeled edge subject -p-> object.
func (g *Graph) AddEdge(subject EntityID, p PredicateID, object EntityID) {
	g.entities[subject].out = append(g.entities[subject].out, Edge{Predicate: p, Object: object})
	g.entities[object].in = append(g.entities[object].in, Edge{Predicate: p, Object: subject})
	g.edgeCount++
}

// Lookup resolves an entity URI to its ID, reporting whether it exists.
func (g *Graph) Lookup(uri string) (EntityID, bool) {
	id, ok := g.uriIndex[uri]
	return id, ok
}

// LookupLabel resolves a mention to the entity whose Label (the URI when no
// label was recorded) equals it up to case and surrounding whitespace. When
// several entities share the folded label the lowest ID wins. The index is
// maintained by AddEntity, so a lookup costs one fold and one map read.
func (g *Graph) LookupLabel(mention string) (EntityID, bool) {
	id, ok := g.labelIndex[foldLabel(mention)]
	return id, ok
}

// LookupType resolves a type URI to its ID, reporting whether it exists.
func (g *Graph) LookupType(uri string) (TypeID, bool) {
	id, ok := g.typeIndex[uri]
	return id, ok
}

// LookupPredicate resolves a predicate URI to its ID.
func (g *Graph) LookupPredicate(uri string) (PredicateID, bool) {
	id, ok := g.predIndex[uri]
	return id, ok
}

// NumEntities returns the number of entity nodes.
func (g *Graph) NumEntities() int { return len(g.entities) }

// NumTypes returns the number of distinct types.
func (g *Graph) NumTypes() int { return len(g.types) }

// NumPredicates returns the number of distinct edge labels.
func (g *Graph) NumPredicates() int { return len(g.predicates) }

// NumEdges returns the number of relation edges.
func (g *Graph) NumEdges() int { return g.edgeCount }

// URI returns the URI of entity e.
func (g *Graph) URI(e EntityID) string { return g.entities[e].uri }

// Label returns the human-readable label of entity e, falling back to its
// URI when no label was recorded.
func (g *Graph) Label(e EntityID) string {
	if l := g.entities[e].label; l != "" {
		return l
	}
	return g.entities[e].uri
}

// Types returns the sorted direct type set of entity e. The returned slice
// is owned by the graph and must not be modified.
func (g *Graph) Types(e EntityID) []TypeID { return g.entities[e].types }

// TypeURI returns the URI of type t.
func (g *Graph) TypeURI(t TypeID) string { return g.types[t].uri }

// TypeLabel returns the label of type t, falling back to its URI.
func (g *Graph) TypeLabel(t TypeID) string {
	if l := g.types[t].label; l != "" {
		return l
	}
	return g.types[t].uri
}

// PredicateURI returns the URI of predicate p.
func (g *Graph) PredicateURI(p PredicateID) string { return g.predicates[p] }

// Out returns the outgoing edges of entity e. The slice is owned by the
// graph and must not be modified.
func (g *Graph) Out(e EntityID) []Edge { return g.entities[e].out }

// In returns the incoming edges of entity e (Object holds the source). The
// slice is owned by the graph and must not be modified.
func (g *Graph) In(e EntityID) []Edge { return g.entities[e].in }

// Degree returns the total (in+out) degree of entity e.
func (g *Graph) Degree(e EntityID) int {
	return len(g.entities[e].out) + len(g.entities[e].in)
}

// SuperTypes returns the direct supertypes of t in the taxonomy.
func (g *Graph) SuperTypes(t TypeID) []TypeID { return g.types[t].parents }

// TypeClosure returns the set of t plus all its transitive supertypes,
// sorted. Cycles in the taxonomy are tolerated.
func (g *Graph) TypeClosure(t TypeID) []TypeID {
	seen := map[TypeID]bool{t: true}
	stack := []TypeID{t}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.types[cur].parents {
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	out := make([]TypeID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ExpandedTypes returns the union of the type closures of all direct types
// of entity e, sorted. This models KGs like DBpedia where entities are
// annotated "with multiple types at different levels of granularity".
func (g *Graph) ExpandedTypes(e EntityID) []TypeID {
	seen := map[TypeID]bool{}
	for _, t := range g.entities[e].types {
		for _, c := range g.TypeClosure(t) {
			seen[c] = true
		}
	}
	out := make([]TypeID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String implements fmt.Stringer with a one-line summary.
func (g *Graph) String() string {
	return fmt.Sprintf("kg.Graph{entities: %d, edges: %d, types: %d, predicates: %d}",
		g.NumEntities(), g.NumEdges(), g.NumTypes(), g.NumPredicates())
}
