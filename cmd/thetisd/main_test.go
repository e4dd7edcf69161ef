package main

// The flag incompatibility matrix is pure logic (flags.go), so every rule
// that used to be an inline os.Exit(2) in main is pinned here without
// forking a process.

import (
	"strings"
	"testing"

	"thetis"
)

// validConfig is a baseline that passes validation; tests mutate one
// aspect at a time.
func validConfig() flagConfig {
	return flagConfig{
		Sim:   "types",
		Votes: 3,
		Index: thetis.DefaultIndexConfig(),
	}
}

func TestValidateFlagsAcceptsBaseline(t *testing.T) {
	if err := validateFlags(validConfig()); err != nil {
		t.Fatalf("baseline config rejected: %v", err)
	}
	coord := validConfig()
	coord.ShardURLs = "http://a:8081|http://a2:8081,http://b:8082"
	if err := validateFlags(coord); err != nil {
		t.Fatalf("coordinator config rejected: %v", err)
	}
	logged := validConfig()
	logged.DeltaLog = "d.log"
	if err := validateFlags(logged); err != nil {
		t.Fatalf("-delta-log rejected: %v", err)
	}
}

func TestValidateFlagsRejections(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*flagConfig)
		wantSub string
	}{
		{"zero votes", func(c *flagConfig) { c.Votes = 0 }, "-votes must be >= 1"},
		{"bad index config", func(c *flagConfig) { c.Index.Vectors = 7; c.Index.BandSize = 10 }, ""},
		{"unknown sim", func(c *flagConfig) { c.Sim = "foo" }, "-sim must be types or embeddings"},
		{"shard-urls with delta log", func(c *flagConfig) { c.DeltaLog = "d.log"; c.ShardURLs = "http://a:1" }, "incompatible with -delta-log"},
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
