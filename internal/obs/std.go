package obs

// Standard metric definitions for the Thetis search service. Centralizing
// names, help strings, and bucket layouts here keeps /metrics consistent
// with docs/OBSERVABILITY.md; instrumented packages call these once (at
// init or construction) and cache the returned handles.

// SearchesTotal counts completed engine searches.
func SearchesTotal() *Counter {
	return Default.Counter("thetis_search_total",
		"Completed semantic searches (Engine.Search/SearchCandidates).", nil)
}

// SearchSeconds observes end-to-end engine search latency.
func SearchSeconds() *Histogram {
	return Default.Histogram("thetis_search_seconds",
		"End-to-end semantic search wall time in seconds.", LatencyBuckets, nil)
}

// SearchStageSeconds observes per-stage search durations. Stage names
// follow the pipeline: probe, vote, mapping, score, rank. For "mapping" the
// observed value is CPU time summed across scoring workers.
func SearchStageSeconds(stage string) *Histogram {
	return Default.Histogram("thetis_search_stage_seconds",
		"Per-stage search duration in seconds (mapping = cross-worker CPU time).",
		LatencyBuckets, Labels{"stage": stage})
}

// SearchCandidates observes candidate-set sizes entering the scorer.
func SearchCandidates() *Histogram {
	return Default.Histogram("thetis_search_candidates",
		"Tables scored per search, after any prefiltering.", CountBuckets, nil)
}

// SearchTruncatedTotal counts searches cut short by context cancellation or
// deadline expiry — best-effort partial results, not errors.
func SearchTruncatedTotal() *Counter {
	return Default.Counter("thetis_search_truncated_total",
		"Searches truncated by context cancellation or deadline, returning partial results.", nil)
}

// SearchPrunedTotal counts candidate tables a top-k search bounded out after
// the σ pass, skipping their column mapping and scoring (docs/PERFORMANCE.md).
func SearchPrunedTotal() *Counter {
	return Default.Counter("thetis_search_pruned_total",
		"Candidate tables whose score upper bound was below the running k-th score, skipped before column mapping.", nil)
}

// SigmaCacheHitsTotal counts σ evaluations served from the query-scoped
// similarity cache (docs/PERFORMANCE.md).
func SigmaCacheHitsTotal() *Counter {
	return Default.Counter("thetis_sigma_cache_hits_total",
		"Entity-similarity lookups served from the query-scoped sigma cache.", nil)
}

// SigmaCacheMissesTotal counts σ evaluations computed and filled into the
// query-scoped similarity cache (≈ distinct query-entity × corpus-entity
// pairs touched; racing workers may double-fill a cell).
func SigmaCacheMissesTotal() *Counter {
	return Default.Counter("thetis_sigma_cache_misses_total",
		"Entity-similarity lookups computed and memoized by the query-scoped sigma cache.", nil)
}

// SigmaCacheBytes gauges the memory reserved by the most recent search's
// sigma cache (dense mode reserves its full array footprint up front).
func SigmaCacheBytes() *Gauge {
	return Default.Gauge("thetis_sigma_cache_bytes",
		"Memory reserved by the most recent query's sigma cache.", nil)
}

// SigmaCacheHitRatio gauges the hit ratio of the most recent search's
// sigma cache (hits / lookups).
func SigmaCacheHitRatio() *Gauge {
	return Default.Gauge("thetis_sigma_cache_hit_ratio",
		"Sigma-cache hit ratio of the most recent search.", nil)
}

// SearchBatchTotal counts batch search calls (POST /search/batch and the
// in-process SearchBatch APIs).
func SearchBatchTotal() *Counter {
	return Default.Counter("thetis_search_batch_total",
		"Batch search invocations.", nil)
}

// SearchBatchQueries observes the number of queries per batch search.
func SearchBatchQueries() *Histogram {
	return Default.Histogram("thetis_search_batch_queries",
		"Queries per batch search invocation.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}, nil)
}

// PrefilterQueriesTotal counts LSEI candidate-set computations.
func PrefilterQueriesTotal() *Counter {
	return Default.Counter("thetis_prefilter_queries_total",
		"LSEI prefilter candidate-set computations.", nil)
}

// PrefilterProbesTotal counts LSH index probes issued by the prefilter
// (one per query entity or aggregated query column with a signature).
func PrefilterProbesTotal() *Counter {
	return Default.Counter("thetis_prefilter_probes_total",
		"LSH probes issued by the LSEI prefilter.", nil)
}

// PrefilterVotesTotal counts table votes cast by colliding entities or
// columns before thresholding (Section 6's voting optimization).
func PrefilterVotesTotal() *Counter {
	return Default.Counter("thetis_prefilter_votes_total",
		"Table votes cast by LSH collisions before vote thresholding.", nil)
}

// PrefilterCandidates observes prefiltered candidate-set sizes.
func PrefilterCandidates() *Histogram {
	return Default.Histogram("thetis_prefilter_candidates",
		"Candidate tables surviving the LSEI vote threshold, per query.",
		CountBuckets, nil)
}

// PrefilterReduction tracks the latest search-space reduction ratio
// (1 - candidates/corpus, the metric of the paper's Table 4).
func PrefilterReduction() *Gauge {
	return Default.Gauge("thetis_prefilter_reduction_ratio",
		"Search-space reduction of the most recent prefiltered query (1 - candidates/corpus).", nil)
}

// LSHBandProbesTotal counts band-bucket lookups inside the LSH index.
func LSHBandProbesTotal() *Counter {
	return Default.Counter("thetis_lsh_band_probes_total",
		"Band-bucket lookups performed by LSH index queries.", nil)
}

// LSHItemsScannedTotal counts items read out of colliding LSH buckets.
func LSHItemsScannedTotal() *Counter {
	return Default.Counter("thetis_lsh_items_scanned_total",
		"Items scanned from colliding buckets during LSH index queries.", nil)
}

// IngestOKTotal counts records accepted during ingestion, by kind
// ("triples", "tables").
func IngestOKTotal(r *Registry, kind string) *Counter {
	if r == nil {
		r = Default
	}
	return r.Counter("thetis_ingest_"+kind+"_ok_total",
		"Records accepted during corpus ingestion.", nil)
}

// IngestSkippedTotal counts records quarantined by lenient ingestion, by
// kind ("triples", "tables"). Always zero in strict mode, which aborts on
// the first malformed record instead.
func IngestSkippedTotal(r *Registry, kind string) *Counter {
	if r == nil {
		r = Default
	}
	return r.Counter("thetis_ingest_"+kind+"_skipped_total",
		"Records quarantined by lenient corpus ingestion.", nil)
}

// IndexEpoch gauges the corpus mutation epoch: it advances by one on every
// AddTable/RemoveTable and is what epoch-keyed caches compare against (see
// docs/LIVE_INDEX.md).
func IndexEpoch(r *Registry) *Gauge {
	if r == nil {
		r = Default
	}
	return r.Gauge("thetis_index_epoch",
		"Corpus mutation epoch (one tick per AddTable/RemoveTable).", nil)
}

// IndexDeltasTotal counts applied index delta operations, by op
// ("add", "remove").
func IndexDeltasTotal(r *Registry, op string) *Counter {
	if r == nil {
		r = Default
	}
	return r.Counter("thetis_index_deltas_total",
		"Index delta operations applied, by op.", Labels{"op": op})
}

// IndexTombstones gauges the number of removed-table slots awaiting
// compaction (lake.NumSlots - lake.NumTables).
func IndexTombstones(r *Registry) *Gauge {
	if r == nil {
		r = Default
	}
	return r.Gauge("thetis_index_tombstones",
		"Removed table slots not yet reclaimed by compaction.", nil)
}

// IndexCompactionsTotal counts background compactions: from-scratch index
// rebuilds hot-swapped in while queries keep flowing.
func IndexCompactionsTotal(r *Registry) *Counter {
	if r == nil {
		r = Default
	}
	return r.Counter("thetis_index_compactions_total",
		"Background index compactions (rebuild + hot swap).", nil)
}

// DeltaLogFailed gauges the write-ahead delta log's sticky failure: 0 while
// every mutation has been durably logged, 1 from the first failed append
// or fsync on — mutations since are served but not durable
// (docs/LIVE_INDEX.md).
func DeltaLogFailed(r *Registry) *Gauge {
	if r == nil {
		r = Default
	}
	return r.Gauge("thetis_delta_log_failed",
		"1 once a delta-log append or fsync has failed (later mutations are not durable), else 0.", nil)
}

// IndexFilterResignsTotal counts items re-signed because a corpus mutation
// flipped a type across the frequent-type threshold.
func IndexFilterResignsTotal(r *Registry) *Counter {
	if r == nil {
		r = Default
	}
	return r.Counter("thetis_index_filter_resigns_total",
		"LSEI items re-signed after frequent-type filter flips.", nil)
}

// ShardSearchesTotal counts per-shard scatter legs executed by the
// coordinator, by shard ("0", "1", …).
func ShardSearchesTotal(shard string) *Counter {
	return Default.Counter("thetis_shard_searches_total",
		"Scatter legs executed against one shard by the coordinator.",
		Labels{"shard": shard})
}

// ShardSearchSeconds observes one shard's scatter-leg latency, by shard.
// The spread across shards is the skew the size-balanced partitioner
// exists to flatten.
func ShardSearchSeconds(shard string) *Histogram {
	return Default.Histogram("thetis_shard_search_seconds",
		"Per-shard scatter-leg wall time in seconds.",
		LatencyBuckets, Labels{"shard": shard})
}

// ShardTruncatedTotal counts scatter legs that returned a truncated
// (partial) response — cancellation, deadline, or a contained shard panic.
func ShardTruncatedTotal(shard string) *Counter {
	return Default.Counter("thetis_shard_truncated_total",
		"Scatter legs that returned truncated partial results, by shard.",
		Labels{"shard": shard})
}

// ShardMergeSeconds observes the coordinator's merge stage: k-way merging
// the per-shard rankings into the global top-k.
func ShardMergeSeconds() *Histogram {
	return Default.Histogram("thetis_shard_merge_seconds",
		"Coordinator time merging per-shard rankings in seconds.",
		LatencyBuckets, nil)
}

// ShardRescattersTotal counts second scatter rounds forced by a globally
// empty prefilter (the sharded analogue of the single-node full-scan
// fallback).
func ShardRescattersTotal() *Counter {
	return Default.Counter("thetis_shard_rescatters_total",
		"Full-scan rescatter rounds after a globally empty prefilter.", nil)
}

// ShardTables gauges how many tables each shard owns — partitioning
// balance at a glance.
func ShardTables(r *Registry, shard string) *Gauge {
	if r == nil {
		r = Default
	}
	return r.Gauge("thetis_shard_tables",
		"Tables owned by one shard.", Labels{"shard": shard})
}

// ShardIndexItems gauges the signatures held by one shard's LSEI
// (entities, or columns in column-aggregation mode).
func ShardIndexItems(r *Registry, shard string) *Gauge {
	if r == nil {
		r = Default
	}
	return r.Gauge("thetis_shard_index_items",
		"Signatures held by one shard's LSEI.", Labels{"shard": shard})
}

// ShardIndexState gauges one shard's prefilter lifecycle, with the same
// encoding as IndexState: 0 building, 1 degraded, 2 ready.
func ShardIndexState(r *Registry, shard string) *Gauge {
	if r == nil {
		r = Default
	}
	return r.Gauge("thetis_shard_index_state",
		"Per-shard prefilter index state: 0 building, 1 degraded (brute force), 2 ready.",
		Labels{"shard": shard})
}

// RemoteShardRetriesTotal counts retry attempts (attempts beyond the
// first) issued by the remote-shard HTTP client, by shard.
func RemoteShardRetriesTotal(shard string) *Counter {
	return Default.Counter("thetis_remote_shard_retries_total",
		"Remote shard-leg retry attempts beyond the first, by shard.",
		Labels{"shard": shard})
}

// RemoteShardHedgesTotal counts hedged (duplicate, latency-racing)
// requests fired after the hedge delay elapsed, by shard.
func RemoteShardHedgesTotal(shard string) *Counter {
	return Default.Counter("thetis_remote_shard_hedges_total",
		"Hedged duplicate requests fired against a second replica, by shard.",
		Labels{"shard": shard})
}

// RemoteShardFailoversTotal counts attempts that switched to a different
// replica than the previous attempt used, by shard.
func RemoteShardFailoversTotal(shard string) *Counter {
	return Default.Counter("thetis_remote_shard_failovers_total",
		"Remote shard attempts that failed over to another replica, by shard.",
		Labels{"shard": shard})
}

// RemoteShardBreakerOpenTotal counts circuit-breaker trips (closed→open
// transitions) across a shard's replicas, by shard.
func RemoteShardBreakerOpenTotal(shard string) *Counter {
	return Default.Counter("thetis_remote_shard_breaker_open_total",
		"Replica circuit-breaker trips (closed to open), by shard.",
		Labels{"shard": shard})
}

// RemoteShardReplicaUp gauges one replica's availability as seen by the
// client: 1 when its breaker is closed, 0 when open or half-open.
func RemoteShardReplicaUp(shard, replica string) *Gauge {
	return Default.Gauge("thetis_remote_shard_replica_up",
		"Replica availability: 1 breaker closed, 0 open/half-open.",
		Labels{"shard": shard, "replica": replica})
}

// PanicsTotal counts panics recovered into errors, by site ("search" for
// scoring workers, "shard" for scatter legs, "http" for request handlers).
func PanicsTotal(r *Registry, site string) *Counter {
	if r == nil {
		r = Default
	}
	return r.Counter("thetis_panics_total",
		"Panics recovered into errors instead of crashing the process, by site.",
		Labels{"site": site})
}

// HTTPRequestsTotal counts requests per endpoint.
func HTTPRequestsTotal(r *Registry, endpoint string) *Counter {
	if r == nil {
		r = Default
	}
	return r.Counter("thetis_http_requests_total",
		"HTTP requests served, by endpoint.", Labels{"endpoint": endpoint})
}

// HTTPErrorsTotal counts responses with status >= 400, per endpoint.
func HTTPErrorsTotal(r *Registry, endpoint string) *Counter {
	if r == nil {
		r = Default
	}
	return r.Counter("thetis_http_errors_total",
		"HTTP responses with status >= 400, by endpoint.", Labels{"endpoint": endpoint})
}

// HTTPRequestSeconds observes request latency per endpoint.
func HTTPRequestSeconds(r *Registry, endpoint string) *Histogram {
	if r == nil {
		r = Default
	}
	return r.Histogram("thetis_http_request_seconds",
		"HTTP request handling latency in seconds, by endpoint.",
		LatencyBuckets, Labels{"endpoint": endpoint})
}

// HTTPShedTotal counts search requests rejected with 429 because the
// in-flight concurrency limit was reached, per endpoint.
func HTTPShedTotal(r *Registry, endpoint string) *Counter {
	if r == nil {
		r = Default
	}
	return r.Counter("thetis_http_shed_total",
		"Requests shed with 429 at the in-flight concurrency limit, by endpoint.",
		Labels{"endpoint": endpoint})
}

// HTTPTimeoutsTotal counts requests whose per-request deadline expired
// before the handler finished, per endpoint.
func HTTPTimeoutsTotal(r *Registry, endpoint string) *Counter {
	if r == nil {
		r = Default
	}
	return r.Counter("thetis_http_timeouts_total",
		"Requests that hit their server-side deadline, by endpoint.",
		Labels{"endpoint": endpoint})
}

// HTTPCancellationsTotal counts requests whose context was cancelled (the
// client went away before the handler finished), per endpoint.
func HTTPCancellationsTotal(r *Registry, endpoint string) *Counter {
	if r == nil {
		r = Default
	}
	return r.Counter("thetis_http_cancellations_total",
		"Requests cancelled by the client before completion, by endpoint.",
		Labels{"endpoint": endpoint})
}

// HTTPInFlight gauges the number of search-type requests currently
// executing (admitted past the concurrency limit, handler not yet done).
func HTTPInFlight(r *Registry) *Gauge {
	if r == nil {
		r = Default
	}
	return r.Gauge("thetis_http_inflight",
		"Search-type requests currently executing.", nil)
}
