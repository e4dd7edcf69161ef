// Package remote implements the shard-over-HTTP client side of the
// scatter-gather seam (docs/SHARDING.md): Shard implements shard.Searcher
// by proxying SearchShard to a remote thetisd over POST /shard/search —
// where thetis.System.SearchShard answers from that daemon's lake — and
// translating the daemon's local table IDs into the coordinator's disjoint
// global ID space. Because a shard leg crosses a network, the client wraps
// every leg in a robustness layer — per-attempt deadlines carved from the
// coordinator budget, bounded retry with exponential backoff and
// deterministic jitter, N-replica failover with health probes, and a
// per-replica circuit breaker — and composes total failure into the same
// correctly ranked Truncated prefix an in-process deadline produces.
//
// The wire types in this file are shared with the server handlers
// (internal/server) and the bootstrap path (thetis.System.BootstrapShards): query
// tuples travel as entity URIs (process-independent, unlike the dense
// intern IDs), scores travel as JSON float64 (Go's encoder emits the
// shortest representation that round-trips bit-exactly), and every search
// response is wrapped in a CRC32C envelope so in-flight bit flips that
// survive HTTP framing are detected and retried rather than merged.
package remote

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
)

// SearchRequest is the body of POST /shard/search: one scatter leg.
type SearchRequest struct {
	// Tuples is the query, one slice of entity URIs per tuple. URIs make
	// the request process-independent: coordinator and shard daemons
	// intern entities in different orders, so dense IDs do not travel.
	Tuples [][]string `json:"tuples"`
	// K is the per-shard top-k (negative returns all scored tables).
	K int `json:"k"`
	// ForceFullScan bypasses the shard's LSEI, set by the coordinator on
	// the rescatter round after a globally empty prefilter
	// (shard.SearchOptions.ForceFullScan, carried verbatim).
	ForceFullScan bool `json:"force_full_scan,omitempty"`
}

// WireResult is one scored table in the remote daemon's LOCAL table ID
// space; the client translates it into the global range.
type WireResult struct {
	Table int32   `json:"table"`
	Score float64 `json:"score"`
}

// WireStats mirrors core.Stats across the wire (durations in
// microseconds; the Trace stays server-side — the client records its own
// remote-leg stages).
type WireStats struct {
	Candidates   int   `json:"candidates"`
	Scored       int   `json:"scored"`
	Pruned       int   `json:"pruned,omitempty"`
	MappingMicro int64 `json:"mapping_us"`
	TotalMicro   int64 `json:"total_us"`
	Truncated    bool  `json:"truncated,omitempty"`
	Panicked     int   `json:"panicked,omitempty"`
	SigmaHits    int64 `json:"sigma_hits,omitempty"`
	SigmaMisses  int64 `json:"sigma_misses,omitempty"`
}

// SearchPayload is the meaningful content of a /shard/search response,
// carried inside Envelope.
type SearchPayload struct {
	Results []WireResult `json:"results"`
	Stats   WireStats    `json:"stats"`
}

// Envelope wraps a JSON payload with a CRC32C (Castagnoli) checksum over
// the exact payload bytes. HTTP gives no end-to-end integrity beyond TCP's
// weak checksum; a bit flip that keeps the JSON well-formed would
// otherwise corrupt a ranking silently. A mismatch is treated like any
// transport error: the attempt is retried.
type Envelope struct {
	CRC     uint32          `json:"crc32c"`
	Payload json.RawMessage `json:"payload"`
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Seal marshals v and wraps it in a checksummed envelope.
func Seal(v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return json.Marshal(Envelope{CRC: crc32.Checksum(payload, castagnoli), Payload: payload})
}

// Open verifies data's envelope checksum and unmarshals the payload
// into v.
func Open(data []byte, v any) error {
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("remote: envelope: %w", err)
	}
	if got := crc32.Checksum(env.Payload, castagnoli); got != env.CRC {
		return fmt.Errorf("remote: payload checksum mismatch (got %08x, want %08x)", got, env.CRC)
	}
	if err := json.Unmarshal(env.Payload, v); err != nil {
		return fmt.Errorf("remote: payload: %w", err)
	}
	return nil
}

// IndexSpec tells a shard daemon to build its LSEI with the given
// configuration (mirrors core.LSEIConfig minus process-local state).
type IndexSpec struct {
	Vectors   int     `json:"vectors"`
	BandSize  int     `json:"band_size"`
	Threshold float64 `json:"threshold"`
	Seed      int64   `json:"seed"`
}

// Artifacts is the body of POST /shard/artifacts: the bootstrap payload
// that makes a remote shard rank exactly like a slice of the unsharded
// system. It carries the two global quantities a shard cannot compute
// from its own slice (docs/SHARDING.md): the corpus-wide IDF
// informativeness table and the frequent-type filter, plus the votes and
// index configuration so every shard prefilteres identically.
type Artifacts struct {
	// Informativeness maps entity URI to the corpus-global IDF weight.
	// Only entities that occur in the corpus are listed (df > 0);
	// everything else weighs 1, matching core.IDFInformativeness.
	Informativeness map[string]float64 `json:"informativeness"`
	// FrequentTypes lists type URIs the global filter drops from LSEI
	// signatures. Meaningful only when HasFilter is true (the embedding
	// similarity builds its LSEI without a type filter).
	FrequentTypes []string `json:"frequent_types,omitempty"`
	// HasFilter distinguishes "type filter with these members" from "no
	// type filter shipped".
	HasFilter bool `json:"has_filter,omitempty"`
	// Votes is the LSEI vote threshold every shard must share.
	Votes int `json:"votes"`
	// Index, when non-nil, asks the daemon to (re)build its LSEI with
	// this configuration under the shipped filter.
	Index *IndexSpec `json:"index,omitempty"`
}
