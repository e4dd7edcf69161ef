package core

import (
	"math/bits"

	"thetis/internal/lake"
)

// voteSpace is the pooled workspace of one LSEI Candidates call (see
// LSEI.spaces). Every array is dense and generation-stamped, so a probe
// costs what it touches: deduplicating a colliding item is one stamp check,
// a vote is one stamp check and one increment, and nothing is cleared
// between probes — each probe just advances gen.
//
// Memory: 4 B per item ID plus 8 B (and one bit) per table slot, grown on
// use when the lake or the index's item space has grown.
type voteSpace struct {
	gen uint32
	// itemGen[item] == gen: the item already voted in this probe (it
	// collides in several bands).
	itemGen []uint32
	// tableGen[tid] == gen: votes[tid] counts this probe's votes for tid;
	// any other stamp means zero.
	tableGen []uint32
	votes    []int32
	// touched lists the tables voted for in this probe, in first-vote order.
	touched []lake.TableID
	// out is the request's candidate bitset over table slots: set by every
	// probe in which a table reaches the vote threshold, drained in ID
	// order (and so cleared) by take.
	out []uint64
	// buckets receives lsh.Index.Buckets' views for one probe.
	buckets [][]uint32
}

// fitTables grows the per-table arrays to cover n table slots. New slots
// carry stamp 0, which never equals a live generation.
func (ws *voteSpace) fitTables(n int) {
	if n > len(ws.tableGen) {
		ws.tableGen = append(ws.tableGen, make([]uint32, n-len(ws.tableGen))...)
		ws.votes = append(ws.votes, make([]int32, n-len(ws.votes))...)
	}
	if words := (n + 63) / 64; words > len(ws.out) {
		ws.out = append(ws.out, make([]uint64, words-len(ws.out))...)
	}
}

// fitItems grows itemGen to cover n item IDs, keeping the stamps already
// written by the current probe.
func (ws *voteSpace) fitItems(n int) {
	if n > len(ws.itemGen) {
		ws.itemGen = append(ws.itemGen, make([]uint32, n-len(ws.itemGen))...)
	}
}

// advance starts a probe: a fresh generation and an empty touched list.
// When the counter wraps, every stamp is cleared so that none written
// 2³² probes ago can match again; generation 0 is never live.
func (ws *voteSpace) advance() {
	ws.gen++
	if ws.gen == 0 {
		clear(ws.itemGen)
		clear(ws.tableGen)
		ws.gen = 1
	}
	ws.touched = ws.touched[:0]
}

// vote counts one colliding item's vote for table tid in this probe.
func (ws *voteSpace) vote(tid lake.TableID) {
	if ws.tableGen[tid] != ws.gen {
		ws.tableGen[tid] = ws.gen
		ws.votes[tid] = 0
		ws.touched = append(ws.touched, tid)
	}
	ws.votes[tid]++
}

// take returns the candidate bitset's members in ascending table ID order
// and leaves the bitset empty for the next request.
func (ws *voteSpace) take() []lake.TableID {
	n := 0
	for _, w := range ws.out {
		n += bits.OnesCount64(w)
	}
	ids := make([]lake.TableID, 0, n)
	for i, w := range ws.out {
		for w != 0 {
			ids = append(ids, lake.TableID(i*64+bits.TrailingZeros64(w)))
			w &= w - 1
		}
		ws.out[i] = 0
	}
	return ids
}
