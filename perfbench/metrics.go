package main

import (
	"fmt"
	"runtime"
	"time"

	"megate/internal/stats"
)

// metricDef names one reported metric. Every workload reports every metric:
// the end-to-end names are defined per workload (README.md has the table),
// and a per-layer metric of a layer the workload does not exercise reads 0.
type metricDef struct {
	name, unit, better string
}

var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"heap_retained_mb", "MB", "lower"},
	{"cold_ms", "ms", "lower"},
	{"steady_ms", "ms", "lower"},
	{"slow_ms", "ms", "lower"},
	{"rate_per_s", "1/s", "higher"},
	{"quality_frac", "frac", "higher"},
}

var layerMetrics = []metricDef{
	// te-churn
	{"core.sitemerge_ms", "ms", "lower"},
	{"lp.maxsiteflow_ms", "ms", "lower"},
	{"lp.fastpath_hit_frac", "frac", "higher"},
	{"lp.certified_gap", "frac", "lower"},
	{"ssp.fastssp_ms", "ms", "lower"},
	{"core.stage2_cache_hit_frac", "frac", "higher"},
	{"controlplane.publish_tail_ms", "ms", "lower"},
	{"controlplane.records_written", "count", "lower"},
	{"controlplane.records_deleted", "count", "lower"},
	{"controlplane.records_unchanged", "count", "higher"},
	{"kvstore.mput_ms_p50", "ms", "lower"},
	{"kvstore.mput_ms_p99", "ms", "lower"},
	{"cluster.keys_per_batch", "count", "higher"},
	{"go.alloc_mb_per_interval", "MB", "lower"},
	{"go.mallocs_per_flow", "count", "lower"},
	// agent-sync
	{"controlplane.poll_ms_p50", "ms", "lower"},
	{"controlplane.poll_ms_p99", "ms", "lower"},
	{"controlplane.poll_nochange_ms_p50", "ms", "lower"},
	{"controlplane.poll_nochange_ms_p99", "ms", "lower"},
	{"controlplane.poll_update_ms_p50", "ms", "lower"},
	{"controlplane.poll_update_ms_p99", "ms", "lower"},
	{"controlplane.poll_due_ms_p50", "ms", "lower"},
	{"controlplane.poll_due_ms_p99", "ms", "lower"},
	{"controlplane.install_lag_ms_p99", "ms", "lower"},
	{"controlplane.update_frac", "frac", "higher"},
	{"controlplane.poll_error_frac", "frac", "lower"},
	{"kvstore.server_version_ms", "ms", "lower"},
	{"kvstore.server_get_ms", "ms", "lower"},
	{"controlplane.interval_ms", "ms", "lower"},
	{"bench.gen_late_ms_p99", "ms", "lower"},
	// host-send
	{"hoststack.send_ns_64", "ns", "lower"},
	{"hoststack.send_ns_1400", "ns", "lower"},
	{"hoststack.send_ns_4000", "ns", "lower"},
	{"hoststack.allocs_per_pkt_64", "count", "lower"},
	{"hoststack.allocs_per_pkt_1400", "count", "lower"},
	{"hoststack.allocs_per_pkt_4000", "count", "lower"},
	{"hoststack.bytes_per_pkt_64", "B", "lower"},
	{"hoststack.bytes_per_pkt_1400", "B", "lower"},
	{"hoststack.bytes_per_pkt_4000", "B", "lower"},
	{"ebpf.egress_ns", "ns", "lower"},
	{"packet.encap_ns", "ns", "lower"},
	{"packet.fragment_ns", "ns", "lower"},
	{"hoststack.sr_frac", "frac", "higher"},
	// every workload
	{"bench.trace_spans", "count", "lower"},
	{"bench.traced_steady_ms", "ms", "lower"},
}

// percentile is stats.Percentile (p in 0..100) with 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, p)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// mean is stats.Mean with 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Mean(xs)
}

// tailPercentiles are tried highest first by tail.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

// tail returns the highest of p99, p95, p90, p75 and p50 that has at least
// ten samples beyond it, and a note naming it with the sample count. With
// fewer than 20 samples it falls back to the maximum.
func tail(xs []float64) (float64, string) {
	n := len(xs)
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10 {
			return percentile(xs, p), fmt.Sprintf("p%.0f of %d samples", p, n)
		}
	}
	if n == 0 {
		return 0, "no samples"
	}
	return percentile(xs, 100), fmt.Sprintf("max of %d samples", n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// retainedHeapMB runs a full collection and returns the live heap in MB:
// what the workload's state holds at the end of its measured phase. Peaks
// were tried and dropped: the sampled heap, the sampled live heap and the
// peak resident memory all varied by 15-35% between runs of one seed,
// because they depend on where the collector's cycle falls.
func retainedHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// setupRepeats is how many times agent-sync and host-send set up per run;
// one set-up takes 10-20 ms, so a single one reads mostly scheduler noise.
const setupRepeats = 9

// medianSetup runs setup setupRepeats times, tearing down all but the last,
// and returns the last environment with the median set-up time in seconds.
func medianSetup[E any](setup func() (E, error), teardown func(E)) (E, float64, error) {
	var env E
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // every set-up starts from the same heap
		start := time.Now()
		e, err := setup()
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			teardown(e)
		} else {
			env = e
		}
	}
	return env, median(times), nil
}
