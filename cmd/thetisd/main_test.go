package main

// Satellite of docs/SHARDING.md's shard-over-HTTP work: the flag
// incompatibility matrix is pure logic (flags.go), so every rule that used
// to be an inline os.Exit(2) in main is pinned here without forking a
// process. -delta-log with -shards > 1 is accepted: one mutation path logs
// global-ID mutations in order at every shard count (the restart-replay
// rows of live_test.go).

import (
	"strings"
	"testing"

	"thetis"
)

// validConfig is a baseline that passes validation; tests mutate one
// aspect at a time.
func validConfig() flagConfig {
	return flagConfig{
		Sim:     "types",
		Shards:  1,
		ShardBy: "hash",
		Votes:   3,
		Index:   thetis.DefaultIndexConfig(),
	}
}

func TestValidateFlagsAcceptsBaseline(t *testing.T) {
	if err := validateFlags(validConfig()); err != nil {
		t.Fatalf("baseline config rejected: %v", err)
	}
	sharded := validConfig()
	sharded.Shards = 4
	sharded.ShardBy = "size"
	if err := validateFlags(sharded); err != nil {
		t.Fatalf("plain sharded config rejected: %v", err)
	}
	coord := validConfig()
	coord.ShardURLs = "http://a:8081|http://a2:8081,http://b:8082"
	if err := validateFlags(coord); err != nil {
		t.Fatalf("coordinator config rejected: %v", err)
	}
	for _, shardBy := range []string{"hash", "size"} {
		logged := validConfig()
		logged.Shards = 2
		logged.ShardBy = shardBy
		logged.DeltaLog = "d.log"
		if err := validateFlags(logged); err != nil {
			t.Fatalf("-delta-log with -shards 2 -shard-by %s rejected: %v", shardBy, err)
		}
	}
}

func TestValidateFlagsRejections(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*flagConfig)
		wantSub string
	}{
		{"indexfile with shards", func(c *flagConfig) { c.Shards = 2; c.IndexFile = "i.bin" }, "-indexfile requires -shards 1"},
		{"zero shards", func(c *flagConfig) { c.Shards = 0 }, "-shards must be >= 1"},
		{"zero votes", func(c *flagConfig) { c.Votes = 0 }, "-votes must be >= 1"},
		{"bad shard-by", func(c *flagConfig) { c.ShardBy = "round-robin" }, "-shard-by must be hash or size"},
		{"bad index config", func(c *flagConfig) { c.Index.Vectors = 7; c.Index.BandSize = 10 }, ""},
		{"unknown sim", func(c *flagConfig) { c.Sim = "foo" }, "-sim must be types or embeddings"},
		{"shard-urls with shards", func(c *flagConfig) { c.Shards = 2; c.ShardURLs = "http://a:1" }, "incompatible with -shards"},
		{"shard-urls with size placement", func(c *flagConfig) { c.ShardBy = "size"; c.ShardURLs = "http://a:1" }, "requires -shard-by hash"},
		{"shard-urls with delta log", func(c *flagConfig) { c.DeltaLog = "d.log"; c.ShardURLs = "http://a:1" }, "incompatible with -delta-log"},
		{"shard-urls with indexfile", func(c *flagConfig) { c.IndexFile = "i.bin"; c.ShardURLs = "http://a:1" }, "incompatible with -indexfile"},
		{"shard-urls empty group", func(c *flagConfig) { c.ShardURLs = "http://a:1,," }, "no replicas"},
		{"shard-urls bad scheme", func(c *flagConfig) { c.ShardURLs = "ftp://a:1" }, "http://"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := validConfig()
			tc.mutate(&c)
			err := validateFlags(c)
			if err == nil {
				t.Fatalf("config accepted, want rejection containing %q", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestParseShardURLs(t *testing.T) {
	groups, err := parseShardURLs(" http://a:8081 | http://a2:8081 , http://b:8082/ ")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"http://a:8081", "http://a2:8081"}, {"http://b:8082"}}
	if len(groups) != len(want) {
		t.Fatalf("got %d shards, want %d", len(groups), len(want))
	}
	for i := range want {
		if len(groups[i]) != len(want[i]) {
			t.Fatalf("shard %d: got %v, want %v", i, groups[i], want[i])
		}
		for j := range want[i] {
			if groups[i][j] != want[i][j] {
				t.Fatalf("shard %d replica %d: got %q, want %q", i, j, groups[i][j], want[i][j])
			}
		}
	}
	if _, err := parseShardURLs(""); err == nil {
		t.Fatal("empty spec accepted")
	}
}
