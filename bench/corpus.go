package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"thetis/internal/core"
	"thetis/internal/datagen"
	"thetis/internal/embedding"
	"thetis/internal/lake"
	"thetis/internal/table"
)

const (
	// The lake every run is made on: another lake moves latency by up to
	// 2x and NDCG by several percent (README), so runs that are compared
	// share it and a run's -seed decides the load schedule only.
	lakeSeed   = 42
	lakeTables = 4000

	topics = 50 // query topics: 50 five-tuple queries and their 50 one-tuple prefixes
	topK   = 10
	// freshTables is how many distinct tables live_mixed has to add; the
	// mutation stream cycles through them (a table is removed long before
	// its content comes round again).
	freshTables = 256
)

// benchQuery is one query of the fixed query set with its ground truth.
type benchQuery struct {
	name   string
	tuples int
	q      core.Query
	body   []byte          // POST /search request body
	grades map[int]float64 // datagen.BuildGroundTruth relevance grades
}

// corpus is everything generated before the system under test is built:
// the knowledge graph, the lake's tables, the queries and (for the
// embedding workload) the trained embeddings, serialized. The system
// receives the graph, the tables and the queries; lake is the harness's
// own copy for ground truth and the reference pipelines.
type corpus struct {
	kg         *datagen.KG
	lake       *lake.Lake
	queries    []benchQuery // [0,topics) one-tuple prefixes, [topics,2*topics) five-tuple
	embeddings []byte       // embedding.Store.Write output; nil until trainEmbeddings
	hash       string
	seed       int64 // what the lake was generated from

	datagenS, trainS float64
}

// buildCorpus generates the lake; every generator seed derives from seed.
// Runs pass lakeSeed and lakeTables, the tests smaller lakes.
func buildCorpus(seed int64, tables int) *corpus {
	start := time.Now()
	kcfg := datagen.DefaultKGConfig()
	kcfg.Seed = seed
	k := datagen.GenerateKG(kcfg)
	profile := datagen.ProfileWT2015(tables)
	profile.Seed = seed + 1
	c := &corpus{kg: k, lake: datagen.GenerateCorpus(k, profile), seed: seed}

	five := datagen.GenerateQueries(k, datagen.QueryConfig{Count: topics, TuplesPerQuery: 5, Width: 3, Seed: seed + 2})
	c.queries = make([]benchQuery, 2*topics)
	for i, bq := range five {
		grades := datagen.BuildGroundTruth(c.lake, bq).Grades
		c.queries[i] = c.newQuery(bq.Truncate(1), grades)
		c.queries[topics+i] = c.newQuery(bq, grades)
	}

	h := sha256.New()
	for _, t := range c.lake.Tables() {
		if err := table.WriteJSON(t, k.Graph, h); err != nil {
			panic(err) // a hash never fails to write
		}
	}
	for _, q := range c.queries {
		h.Write(q.body)
	}
	c.hash = hex.EncodeToString(h.Sum(nil))[:16]
	c.datagenS = time.Since(start).Seconds()
	return c
}

func (c *corpus) newQuery(bq datagen.BenchmarkQuery, grades map[int]float64) benchQuery {
	g := c.kg.Graph
	var tuples []string
	for _, tuple := range bq.Query {
		uris := make([]string, len(tuple))
		for i, e := range tuple {
			uris[i] = g.URI(e)
		}
		tuples = append(tuples, strings.Join(uris, " | "))
	}
	body, err := json.Marshal(map[string]any{"query": strings.Join(tuples, "; "), "k": topK})
	if err != nil {
		panic(err)
	}
	return benchQuery{
		name:   fmt.Sprintf("%s/%d", bq.Name, len(bq.Query)),
		tuples: len(bq.Query), q: bq.Query, body: body, grades: grades,
	}
}

// trainEmbeddings trains the embedding store once and keeps it serialized,
// which is how the system under test receives it (LoadEmbeddings). The walk
// and epoch counts are below the library defaults: training is harness
// time, and the cost of a cosine depends on the dimension, which is kept.
func (c *corpus) trainEmbeddings() {
	if c.embeddings != nil {
		return
	}
	start := time.Now()
	walks := embedding.WalkConfig{WalksPerEntity: 4, Length: 6, Undirected: true, Seed: c.seed + 3}
	train := embedding.DefaultTrainConfig()
	train.Epochs = 1
	train.Seed = c.seed + 3
	var buf bytes.Buffer
	if err := embedding.TrainGraph(c.kg.Graph, walks, train).Write(&buf); err != nil {
		panic(err)
	}
	c.embeddings = buf.Bytes()
	c.trainS = time.Since(start).Seconds()
}

// schedule is what a run's -seed decides: the order queries are issued in
// and the tables live_mixed adds.
type schedule struct {
	order []int    // indices into corpus.queries, walked cyclically
	fresh [][]byte // annotated-JSON tables for AddTableJSON, in add order
	hash  string
}

// newSchedule shuffles cycles of the query mix. onePerFive one-tuple
// queries are issued per five-tuple query: 3 gives the 75/25 mix whose
// median lies inside the one-tuple mode and whose p95 inside the five-tuple
// mode; 0 issues five-tuple queries only. Every cycle holds every query of
// the mix equally often, so two seeds run the same work in another order.
func newSchedule(c *corpus, seed int64, onePerFive int, mutations bool) *schedule {
	rng := rand.New(rand.NewSource(seed))
	var cycle []int
	for i := 0; i < topics; i++ {
		cycle = append(cycle, topics+i)
		for j := 0; j < onePerFive; j++ {
			cycle = append(cycle, i)
		}
	}
	s := &schedule{}
	for len(s.order) < 1<<14 {
		rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		s.order = append(s.order, cycle...)
	}
	if mutations {
		profile := datagen.ProfileWT2015(freshTables)
		profile.Seed = seed
		for i, t := range datagen.GenerateCorpus(c.kg, profile).Tables() {
			t.Name = fmt.Sprintf("live-%d-%d", seed, i)
			var buf bytes.Buffer
			if err := table.WriteJSON(t, c.kg.Graph, &buf); err != nil {
				panic(err)
			}
			s.fresh = append(s.fresh, buf.Bytes())
		}
	}
	h := sha256.New()
	for _, qi := range s.order {
		binary.Write(h, binary.LittleEndian, int32(qi))
	}
	for _, t := range s.fresh {
		h.Write(t)
	}
	s.hash = hex.EncodeToString(h.Sum(nil))[:16]
	return s
}
