package shard

import (
	"casa/internal/dna"
	"casa/internal/engine"
)

// init registers one "sharded:<name>" composite per persisting engine
// already in the registry (casa, cpu, fmindex), so the batch pool,
// benchmarks, conformance tests, fuzz harnesses and CLIs pick them up
// with zero per-engine switches. Sharding exists for references too
// large to index in one piece, and such an index is built once and
// loaded per shard; engines that do not persist rebuild from FASTA on
// every run and gain nothing from a composite. The built-in engines
// register in package engine's own init, which Go runs before this one
// (engine is an import of this package).
func init() {
	for _, f := range engine.List() {
		if f.NewEmpty != nil {
			engine.Register(shardedFactory(f))
		}
	}
}

// shardedFactory derives the composite's factory from the persisting
// inner engine's, aliases included.
func shardedFactory(inner engine.Factory) engine.Factory {
	f := engine.Factory{
		Name:        "sharded:" + inner.Name,
		Description: "sharded composite over " + inner.Name + " (overlapping reference shards, merged SMEMs)",
		New: func(ref dna.Sequence, opt engine.Options) (engine.Engine, error) {
			return newSharded(inner, ref, opt)
		},
		NewEmpty: func(opt engine.Options) (engine.Engine, error) {
			return &Sharded{name: "sharded:" + inner.Name, factory: inner, opt: opt}, nil
		},
	}
	for _, a := range inner.Aliases {
		f.Aliases = append(f.Aliases, "sharded:"+a)
	}
	return f
}
