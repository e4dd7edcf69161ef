package core

import (
	"context"

	"thetis/internal/kg"
)

// Test hooks for the external core_test package.

// EntitySignature is the probe signature of e (nil when e has none).
func (x *LSEI) EntitySignature(e kg.EntityID) []uint32 { return x.entitySignature(e) }

// BucketsOf returns the band buckets sig collides with in x's index.
func (x *LSEI) BucketsOf(sig []uint32) [][]uint32 {
	return x.index.Buckets(context.Background(), sig, nil)
}

// RandomCorpus is randomCorpus: a seeded random lake over a random typed
// graph.
var RandomCorpus = randomCorpus
