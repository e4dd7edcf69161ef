package core

import "context"

// Batched scoring (docs/THROUGHPUT.md). A batch of N queries shares one
// σ cache scoped to the union of their distinct entities, so a pair
// touched by several queries is computed once per batch instead of once
// per query. WithBatchSigma plants the shared cache in a context, and
// Engine.newSigmaCache picks it up per search leg — which is how every
// scatter leg of every query of a batch shares σ without widening the
// shard.Searcher interface.
//
// Results are bit-identical to N sequential Search calls: σ is
// deterministic, so sharing memoized values across queries can only change
// *when* a pair is computed, never its value, and each query keeps its own
// scorer, candidate set, ranking, and top-k cut.

// BatchSigma carries one batch's shared σ cache. Build it with
// NewBatchSigma, plant it with WithBatchSigma, and run ordinary searches
// under that context; engines scoring with the same σ join the cache
// automatically, and everything else (top-k σ searches, other engines'
// σ) keeps its private query-scoped cache.
type BatchSigma struct {
	sim   Similarity
	cache *SigmaCache
}

// NewBatchSigma builds the shared cache for a batch of queries scored by
// sim over a corpus ID space of numEntities. Returns nil when the batch
// has no entities (nothing to share).
func NewBatchSigma(queries []Query, sim Similarity, numEntities int) *BatchSigma {
	total := 0
	for _, q := range queries {
		total += len(q)
	}
	if total == 0 || sim == nil {
		return nil
	}
	return &BatchSigma{sim: sim, cache: NewBatchSigmaCache(queries, sim, numEntities)}
}

// Cache exposes the underlying shared cache (introspection and tests).
func (bs *BatchSigma) Cache() *SigmaCache {
	if bs == nil {
		return nil
	}
	return bs.cache
}

type batchSigmaCtxKey struct{}

// WithBatchSigma returns a context carrying bs; searches executed under
// it share the batch σ cache (see BatchSigma). A nil bs returns ctx
// unchanged.
func WithBatchSigma(ctx context.Context, bs *BatchSigma) context.Context {
	if bs == nil {
		return ctx
	}
	return context.WithValue(ctx, batchSigmaCtxKey{}, bs)
}

func batchSigmaFrom(ctx context.Context) *BatchSigma {
	bs, _ := ctx.Value(batchSigmaCtxKey{}).(*BatchSigma)
	return bs
}
