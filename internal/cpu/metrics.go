package cpu

import "casa/internal/metrics"

// Engine is the metric-name prefix for the software (BWA-MEM2 class)
// baseline.
const Engine = "cpu"

// PublishMetrics adds this shard's additive activity counters into reg.
// Shard registries merged in any order equal the sequential run's.
func (act *Activity) PublishMetrics(reg *metrics.Registry) {
	reg.Counter("cpu/fm/steps").Add(act.Steps)
}

// PublishModelMetrics publishes the finalized model outputs of a reduced
// Result. Call once per run, after Reduce.
func (res *Result) PublishModelMetrics(reg *metrics.Registry) {
	reg.Gauge("cpu/model/reads").Set(float64(len(res.Reads)))
	reg.Gauge("cpu/model/seconds").Set(res.Seconds)
	reg.Gauge("cpu/model/throughput_reads_per_s").Set(res.Throughput)
	reg.Gauge("cpu/model/reads_per_mj").Set(res.ReadsPerMJ)
}
