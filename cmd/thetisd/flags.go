package main

// Flag validation, factored out of main so the incompatibility matrix is
// testable without forking a process: every rule here answers exit code 2
// (usage error) before any corpus I/O starts, instead of surfacing as a
// mid-flight panic or — worse — a daemon that starts but serves wrong
// results under an unsupported flag combination.

import (
	"fmt"
	"strings"

	"thetis"
)

// flagConfig is the subset of thetisd's flags whose combinations need
// validating.
type flagConfig struct {
	Sim       string
	Shards    int
	ShardBy   string
	ShardURLs string
	Votes     int
	Index     thetis.IndexConfig
	IndexFile string
	DeltaLog  string
}

// validateFlags returns the first rule the configuration violates, nil if
// the combination is serveable.
func validateFlags(c flagConfig) error {
	if c.Sim != "types" && c.Sim != "embeddings" {
		return fmt.Errorf("-sim must be types or embeddings (got %q)", c.Sim)
	}
	if err := c.Index.Validate(); err != nil {
		return err
	}
	if c.Votes < 1 {
		return fmt.Errorf("-votes must be >= 1 (got %d)", c.Votes)
	}
	if c.Shards < 1 {
		return fmt.Errorf("-shards must be >= 1 (got %d)", c.Shards)
	}
	if c.ShardBy != "hash" && c.ShardBy != "size" {
		return fmt.Errorf("-shard-by must be hash or size (got %q)", c.ShardBy)
	}
	if c.Shards > 1 && c.IndexFile != "" {
		return fmt.Errorf("-indexfile requires -shards 1 (snapshots cover one shard's index)")
	}
	if c.ShardURLs != "" {
		// Coordinator mode scatters to remote daemons; everything that
		// assumes a local index or local mutations is off the table.
		if c.Shards > 1 {
			return fmt.Errorf("-shard-urls is incompatible with -shards > 1 (remote and in-process sharding cannot nest)")
		}
		if c.ShardBy != "hash" {
			return fmt.Errorf("-shard-urls requires -shard-by hash (only stateless placement is reproducible across coordinator restarts)")
		}
		if c.DeltaLog != "" {
			return fmt.Errorf("-shard-urls is incompatible with -delta-log (a coordinator is read-only; mutate the shard daemons)")
		}
		if c.IndexFile != "" {
			return fmt.Errorf("-shard-urls is incompatible with -indexfile (the coordinator holds no local index; shards build their own)")
		}
		if _, err := parseShardURLs(c.ShardURLs); err != nil {
			return err
		}
	}
	return nil
}

// parseShardURLs splits -shard-urls into per-shard replica groups: shards
// are comma-separated, replicas of one shard pipe-separated —
// "http://a:8081|http://a2:8081,http://b:8082" is two shards, the first
// with two interchangeable replicas. Shard order must match the hash
// partitioner's shard numbering, which in turn fixes which slice of the
// corpus each daemon must serve.
func parseShardURLs(spec string) ([][]string, error) {
	var groups [][]string
	for i, group := range strings.Split(spec, ",") {
		var replicas []string
		for _, u := range strings.Split(group, "|") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
				return nil, fmt.Errorf("-shard-urls: shard %d replica %q must start with http:// or https://", i, u)
			}
			replicas = append(replicas, strings.TrimRight(u, "/"))
		}
		if len(replicas) == 0 {
			return nil, fmt.Errorf("-shard-urls: shard %d has no replicas", i)
		}
		groups = append(groups, replicas)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("-shard-urls: no shards listed")
	}
	return groups, nil
}
