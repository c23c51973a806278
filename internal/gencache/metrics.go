package gencache

import "casa/internal/metrics"

// Engine is the metric-name prefix for the GenCache baseline.
const Engine = "gencache"

// PublishMetrics adds this shard's additive activity counters into reg.
// Shard registries merged in any order equal the sequential run's. The
// cache hit/miss counts are not published here: they are only meaningful
// after the sequential replay in Reduce (see PublishModelMetrics).
func (act *Activity) PublishMetrics(reg *metrics.Registry) {
	reg.Counter("gencache/bypass/checks").Add(act.Stats.FastChecks)
	reg.Counter("gencache/bypass/check_ops").Add(act.Stats.FastCheckOps)
	reg.Counter("gencache/bypass/fast_seeded").Add(act.Stats.FastSeeded)
	reg.Counter("gencache/smem/slow_seeded").Add(act.Stats.SlowSeeded)
	reg.Counter("gencache/lanes/fetches").Add(act.GenAx.Fetches)
	reg.Counter("gencache/lanes/intersection_ops").Add(act.GenAx.IntersectionOps)
	reg.Counter("gencache/dram/read_stream_bytes").Add(act.ReadBytes)
}

// PublishModelMetrics publishes the finalized model outputs of a reduced
// Result: the replayed cache counts, time, throughput, DRAM traffic and
// energy. Call once per run, after Reduce.
func (res *Result) PublishModelMetrics(reg *metrics.Registry) {
	reg.Counter("gencache/cache/hits").Add(res.Stats.CacheHits)
	reg.Counter("gencache/cache/misses").Add(res.Stats.CacheMisses)
	reg.Gauge("gencache/model/reads").Set(float64(len(res.Reads)))
	reg.Gauge("gencache/model/seconds").Set(res.Seconds)
	reg.Gauge("gencache/model/throughput_reads_per_s").Set(res.Throughput)
	reg.Gauge("gencache/model/reads_per_mj").Set(res.ReadsPerMJ)
	res.DRAM.PublishMetrics(reg, Engine)
	res.Energy.PublishMetrics(reg, Engine)
}
