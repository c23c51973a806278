package genax

import "casa/internal/metrics"

// Engine is the metric-name prefix for the GenAx baseline.
const Engine = "genax"

// PublishMetrics adds this shard's additive activity counters into reg.
// Shard registries merged in any order equal the sequential run's.
func (act *Activity) PublishMetrics(reg *metrics.Registry) {
	reg.Counter("genax/lanes/fetches").Add(act.Stats.Fetches)
	reg.Counter("genax/lanes/intersection_ops").Add(act.Stats.IntersectionOps)
	reg.Counter("genax/smem/pivots").Add(act.Stats.Pivots)
	reg.Counter("genax/smem/rmems").Add(act.Stats.RMEMs)
	reg.Counter("genax/reads/seeded").Add(act.Stats.Reads)
	reg.Counter("genax/dram/read_stream_bytes").Add(act.ReadBytes)
}

// PublishModelMetrics publishes the finalized model outputs of a reduced
// Result. Call once per run, after Reduce.
func (res *Result) PublishModelMetrics(reg *metrics.Registry) {
	reg.Gauge("genax/model/reads").Set(float64(len(res.Reads)))
	reg.Gauge("genax/model/seconds").Set(res.Seconds)
	reg.Gauge("genax/model/throughput_reads_per_s").Set(res.Throughput)
	reg.Gauge("genax/model/reads_per_mj").Set(res.ReadsPerMJ)
	res.DRAM.PublishMetrics(reg, Engine)
	res.Energy.PublishMetrics(reg, Engine)
}
