// Command thetis searches a semantic data lake from the command line.
//
// Subcommands:
//
//	thetis stats  -kg kg.nt -corpus corpus.jsonl
//	thetis embed  -kg kg.nt -out embeddings.bin [-dim 48] [-epochs 3]
//	thetis search -kg kg.nt -corpus corpus.jsonl -query "Ron Santo | Chicago Cubs" \
//	              [-sim types|embeddings] [-embfile embeddings.bin] \
//	              [-k 10] [-lsh] [-votes 3] [-hybrid] \
//	              [-timeout 5s]
//
// The corpus is a JSONL file of entity-annotated tables as produced by
// cmd/datagen (or any tool emitting the same format). Training embeddings
// once with `thetis embed` and loading them via -embfile avoids retraining
// on every search.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"thetis"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("thetis: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "stats":
		runStats(os.Args[2:])
	case "embed":
		runEmbed(os.Args[2:])
	case "search":
		runSearch(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: thetis <stats|embed|search> [flags]")
	os.Exit(2)
}

// ingestFlags registers the shared lenient-ingestion flags.
func ingestFlags(fs *flag.FlagSet) (lenient *bool, budget, maxLine *int) {
	lenient = fs.Bool("lenient", false, "skip malformed KG lines and corpus tables instead of aborting")
	budget = fs.Int("budget", 1000, "max records lenient ingestion may quarantine before giving up (-1 = unlimited)")
	maxLine = fs.Int("max-line", 0, "max bytes per KG/corpus line (0 = 16 MiB default)")
	return
}

// configureSimilarity applies the -sim/-embfile flags to a system.
func configureSimilarity(sys *thetis.System, sim, embFile string) {
	switch sim {
	case "types":
		sys.UseTypeSimilarity()
	case "embeddings":
		if embFile != "" {
			f, err := os.Open(embFile)
			if err != nil {
				log.Fatal(err)
			}
			err = sys.LoadEmbeddings(bufio.NewReader(f))
			f.Close()
			if err != nil {
				log.Fatalf("loading embeddings: %v", err)
			}
		} else {
			log.Println("training embeddings (use `thetis embed` + -embfile to avoid retraining)…")
			sys.TrainEmbeddings(thetis.DefaultWalkConfig(), thetis.DefaultTrainConfig())
		}
		sys.UseEmbeddingSimilarity()
	default:
		log.Fatalf("unknown similarity %q (want types | embeddings)", sim)
	}
}

func runEmbed(args []string) {
	fs := flag.NewFlagSet("embed", flag.ExitOnError)
	kgPath := fs.String("kg", "bench/kg.nt", "knowledge graph triples file")
	out := fs.String("out", "embeddings.bin", "output embeddings file")
	dim := fs.Int("dim", 48, "embedding dimensionality")
	epochs := fs.Int("epochs", 3, "training epochs")
	walks := fs.Int("walks", 10, "walks per entity")
	length := fs.Int("length", 8, "walk length")
	seed := fs.Int64("seed", 1, "training seed")
	fs.Parse(args)

	g := thetis.NewGraph()
	kf, err := os.Open(*kgPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := thetis.LoadTriples(g, bufio.NewReader(kf)); err != nil {
		log.Fatalf("loading KG: %v", err)
	}
	kf.Close()

	sys := thetis.New(g)
	wcfg := thetis.WalkConfig{WalksPerEntity: *walks, Length: *length, Undirected: true, Seed: *seed}
	tcfg := thetis.DefaultTrainConfig()
	tcfg.Dim = *dim
	tcfg.Epochs = *epochs
	tcfg.Seed = *seed
	log.Printf("training %d-dim embeddings for %d entities…", *dim, g.NumEntities())
	start := time.Now()
	store := sys.TrainEmbeddings(wcfg, tcfg)
	log.Printf("trained %d vectors in %v", store.Len(), time.Since(start).Round(time.Millisecond))

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if err := sys.SaveEmbeddings(w); err != nil {
		log.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *out)
}

// loadSystem reads the KG and corpus into a System. With lenient set,
// malformed lines and tables are quarantined (up to budget) and a summary
// is logged instead of aborting the load.
func loadSystem(kgPath, corpusPath string, lenient bool, budget, maxLine int) *thetis.System {
	report := thetis.NewIngestReport()
	g := thetis.NewGraph()
	kf, err := os.Open(kgPath)
	if err != nil {
		log.Fatal(err)
	}
	defer kf.Close()
	err = thetis.LoadTriplesOpts(g, bufio.NewReader(kf), thetis.LoadOptions{
		Lenient:      lenient,
		MaxLineBytes: maxLine,
		ErrorBudget:  budget,
		Source:       kgPath,
		Quarantine:   report.Triples,
	})
	if err != nil {
		log.Fatalf("loading KG: %v", err)
	}

	sys := thetis.New(g)
	cf, err := os.Open(corpusPath)
	if err != nil {
		log.Fatal(err)
	}
	defer cf.Close()
	if _, err := sys.IngestCorpus(bufio.NewReaderSize(cf, 1<<20), thetis.IngestOptions{
		Lenient:      lenient,
		MaxLineBytes: maxLine,
		ErrorBudget:  budget,
		Source:       corpusPath,
		Report:       report,
	}); err != nil {
		log.Fatalf("corpus: %v", err)
	}
	if lenient {
		_, tSkip := report.Triples.Counts()
		_, cSkip := report.Tables.Counts()
		if tSkip+cSkip > 0 {
			log.Printf("lenient ingest: quarantined %d triples and %d tables", tSkip, cSkip)
			for _, rec := range append(report.Triples.Records(), report.Tables.Records()...) {
				log.Printf("  %s:%d: %s", rec.Source, rec.Line, rec.Reason)
			}
		}
	}
	return sys
}

func runStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	kgPath := fs.String("kg", "bench/kg.nt", "knowledge graph triples file")
	corpusPath := fs.String("corpus", "bench/corpus.jsonl", "corpus JSONL file")
	lenient, budget, maxLine := ingestFlags(fs)
	fs.Parse(args)

	sys := loadSystem(*kgPath, *corpusPath, *lenient, *budget, *maxLine)
	g := sys.Graph()
	fmt.Printf("knowledge graph: %v\n", g)
	fmt.Printf("corpus: %s\n", sys.Stats())
}

func runSearch(args []string) {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	kgPath := fs.String("kg", "bench/kg.nt", "knowledge graph triples file")
	corpusPath := fs.String("corpus", "bench/corpus.jsonl", "corpus JSONL file")
	queryText := fs.String("query", "", "query: entities separated by '|', tuples by ';' (labels or URIs)")
	sim := fs.String("sim", "types", "similarity: types | embeddings")
	embFile := fs.String("embfile", "", "load embeddings from file instead of training")
	k := fs.Int("k", 10, "number of results")
	useLSH := fs.Bool("lsh", false, "enable LSH prefiltering (30,10)")
	votes := fs.Int("votes", 1, "LSH vote threshold")
	hybrid := fs.Bool("hybrid", false, "complement with BM25 keyword search")
	timeout := fs.Duration("timeout", 0, "search deadline; an expiring search prints the partial ranking (0 disables)")
	lenient, budget, maxLine := ingestFlags(fs)
	fs.Parse(args)

	if *queryText == "" {
		log.Fatal("search: -query is required")
	}
	if *votes < 1 {
		fmt.Fprintf(os.Stderr, "thetis search: invalid flags: -votes must be >= 1 (got %d)\n", *votes)
		fs.Usage()
		os.Exit(2)
	}
	sys := loadSystem(*kgPath, *corpusPath, *lenient, *budget, *maxLine)
	configureSimilarity(sys, *sim, *embFile)
	if *useLSH {
		log.Println("building LSEI…")
		sys.BuildIndex(thetis.DefaultIndexConfig())
		sys.SetVotes(*votes)
	}

	q, err := sys.ParseQuery(strings.ReplaceAll(*queryText, ";", "\n"))
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	if *hybrid {
		sys.BuildKeywordIndex()
		ids := sys.HybridSearchContext(ctx, q, strings.NewReplacer("|", " ", ";", " ").Replace(*queryText), *k)
		elapsed := time.Since(start)
		for i, id := range ids {
			fmt.Printf("%2d. %s\n", i+1, sys.Table(id).Name)
		}
		fmt.Printf("(%d results in %v, hybrid)\n", len(ids), elapsed.Round(time.Millisecond))
		return
	}

	results, stats := sys.SearchStatsContext(ctx, q, *k)
	elapsed := time.Since(start)
	for i, r := range results {
		fmt.Printf("%2d. %-40s score=%.4f\n", i+1, sys.Table(r.Table).Name, r.Score)
	}
	fmt.Printf("(%d/%d tables scored, %d pruned, in %v)\n", stats.Scored, stats.Candidates, stats.Pruned, elapsed.Round(time.Millisecond))
	if stats.Truncated {
		fmt.Printf("(truncated: deadline %v expired; ranking covers tables scored before the cutoff)\n", *timeout)
	}
	if stats.Trace != nil {
		fmt.Printf("(%s)\n", stats.Trace)
	}
}
