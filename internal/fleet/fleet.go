// Package fleet is what the benchmark's fleet probes boot: a
// monitord.Daemon with Config.DropUnwatched set, the daemon `serve -fleet
// N` runs. It goes with the fleet workloads (ROADMAP item 3).
package fleet

import "quicksand/internal/monitord"

// Config is the daemon's; Shards is the dispatcher width.
type Config = monitord.Config

// New boots a daemon that drops every update no watched prefix covers
// before its RIB (see monitord.Config.DropUnwatched).
func New(cfg Config) (*monitord.Daemon, error) {
	cfg.DropUnwatched = true
	return monitord.New(cfg)
}
