package core

import (
	"context"

	"thetis/internal/kg"
)

// Test hooks for the external core_test package.

// EntitySignature is the probe signature of e (nil when e has none).
func (x *LSEI) EntitySignature(e kg.EntityID) []uint32 { return x.entitySignature(e) }

// TypeFilter is the frequent-type filter map x signs under (the live
// instance the system's TypeFilterState mutates; nil for embedding indexes).
func (x *LSEI) TypeFilter() map[kg.TypeID]bool { return x.typeFilter }

// BucketsOf returns the band buckets sig collides with in x's index.
func (x *LSEI) BucketsOf(sig []uint32) [][]uint32 {
	return x.index.Buckets(context.Background(), sig, nil)
}

// Key is tj's keying of an entity by interned type set, the key type σ's
// column key groups are built under.
func (tj *TypeJaccard) Key(e kg.EntityID) uint32 { return tj.key(e) }

// RandomCorpus is randomCorpus: a seeded random lake over a random typed
// graph.
var RandomCorpus = randomCorpus
