package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"megate"
	"megate/internal/cluster"
	"megate/internal/controlplane"
	"megate/internal/core"
	"megate/internal/topology"
	"megate/internal/traffic"
)

// churnConfig sizes te-churn.
type churnConfig struct {
	topology string
	// endpoints is the number of instances attached (Weibull spread across
	// sites); each originates about one flow.
	endpoints int
	// load scales the mean demand against the topology's capacity; 0.1
	// puts MegaTE at about 87% satisfied demand on TWAN, the regime of the
	// paper's Figure 10.
	load float64
	// driftShare of the flows change demand each interval, by a factor in
	// [1-driftAmp, 1+driftAmp].
	driftShare, driftAmp float64
	// matrices is how many seeded traffic matrices one run goes through.
	// Each gets its own set-up and cold interval, then a seeded drift
	// sequence and seeded failovers (a link fails, the previous one is
	// restored, through OnLinkFailure).
	matrices int
	// driftPerSecond and failoverPerSecond turn --seconds into the number of
	// drift intervals and of failovers run on each matrix.
	driftPerSecond, failoverPerSecond float64
}

// churnFull is sized so one run fits the time budget of a 2-core machine:
// there a cold TWAN interval at 300 endpoints takes about 1.2 s, a failover
// about as long, and a drift interval 3-6 ms when the fast path serves every
// class, 0.2-0.4 s when one class falls back to the exact solve and about
// 1 s when the largest one does. Which intervals fall back, and how long a
// cold interval takes, depend on the matrix (cold intervals ranged from 1.5
// to 3 s over matrices at 600 endpoints), so one run pools 16 small
// matrices rather than a few large ones: at --seconds 15, 16 cold
// intervals, 64 drift intervals and 16 failovers.
var churnFull = churnConfig{
	topology: "TWAN", endpoints: 300, load: 0.1,
	driftShare: 0.1, driftAmp: 0.2,
	matrices: 16, driftPerSecond: 0.25, failoverPerSecond: 0.05,
}

var churnShort = churnConfig{
	topology: "B4*", endpoints: 240, load: 0.3,
	driftShare: 1, driftAmp: 0.05,
	matrices: 2, driftPerSecond: 1, failoverPerSecond: 1,
}

// counts returns the drift and failover interval counts per matrix.
func (c churnConfig) counts(seconds float64) (drift, failover int) {
	return max(2, int(math.Round(c.driftPerSecond*seconds))), max(1, int(math.Round(c.failoverPerSecond*seconds)))
}

// solverOptions is the controller as it ships (SplitQoS) plus the
// steady-state modes the roadmap targets.
var solverOptions = megate.SolverOptions{SplitQoS: true, Incremental: true, FastPath: true}

// teEnv is one set-up TE loop: topology, demand, database and controller.
type teEnv struct {
	topo   *topology.Topology
	m      *traffic.Matrix
	db     *database
	cc     *cluster.Client
	ctrl   *controlplane.Controller
	cell   *spanCell
	pairs  int // (class, site pair) stage-2 solves per interval
	demand float64
}

// newTE builds a TE loop over a fresh database, with the endpoint layout
// and traffic matrix generated from seed. The matrix mean demand is
// load x total capacity / 3 hops / endpoints, so load is comparable across
// topologies.
func newTE(cfg churnConfig, seed int64, tr *tracer) (*teEnv, error) {
	topo := megate.BuildTopology(cfg.topology)
	topology.AttachEndpointsTarget(topo, cfg.endpoints, 0.7, seed)
	totalCap := 0.0
	for _, l := range topo.Links {
		totalCap += l.CapacityMbps
	}
	mean := cfg.load * totalCap / 3 / float64(topo.NumEndpoints())
	m := megate.GenerateTraffic(topo, megate.TrafficOptions{Seed: seed + 1, MeanDemandMbps: mean})
	db, err := startDatabase()
	if err != nil {
		return nil, err
	}
	cell := &spanCell{}
	cc, err := db.client(tr, cell)
	if err != nil {
		db.close()
		return nil, err
	}
	ctrl := megate.NewClusterController(megate.NewSolver(topo, solverOptions), cc)
	ctrl.Metrics = db.clientReg
	type classPair struct {
		c traffic.Class
		p traffic.SitePair
	}
	pairs := make(map[classPair]bool)
	for _, f := range m.Flows {
		pairs[classPair{f.Class, f.Pair}] = true
	}
	return &teEnv{topo: topo, m: m, db: db, cc: cc, ctrl: ctrl, cell: cell, pairs: len(pairs), demand: mean}, nil
}

func (e *teEnv) close() {
	e.cc.Close()
	e.db.close()
}

// intervalSample is one measured TE interval.
type intervalSample struct {
	failover bool
	// flows and pairs are the matrix's flow count and (class, site pair)
	// stage-2 solves.
	flows, pairs int
	wall         time.Duration
	res          *core.Result
	stats        controlplane.IntervalStats
	allocs       uint64
	mallocs      uint64
}

// runInterval hands the matrix to the controller, times it to the published
// version, and checks the outputs: capacity and down links against the
// topology, and the database's records against BuildConfigs of the result.
func (e *teEnv) runInterval(o *outcome, tr *tracer, failover bool) (*intervalSample, bool) {
	name := "controller.RunInterval"
	if failover {
		name = "controller.OnLinkFailure"
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := tr.id()
	e.cell.id.Store(id)
	start := time.Now()
	var res *core.Result
	var err error
	if failover {
		res, _, err = e.ctrl.OnLinkFailure(e.m)
	} else {
		res, _, err = e.ctrl.RunInterval(e.m)
	}
	end := time.Now()
	e.cell.id.Store(0)
	runtime.ReadMemStats(&after)
	o.attempted++
	if err != nil {
		o.fail("interval: %v", err)
		return nil, false
	}
	st := e.ctrl.LastStats()
	tr.add(name, id, 0, start, end, map[string]float64{
		"sitemerge_ms":   ms(res.SiteMergeTime),
		"maxsiteflow_ms": ms(res.SiteLPTime),
		"fastssp_ms":     ms(res.SSPTime),
		"version":        float64(e.ctrl.Version()),
		"written":        float64(st.Written),
		"deleted":        float64(st.Deleted),
		"unchanged":      float64(st.Unchanged),
		"fastpath_hits":  float64(res.FastPathHits),
		"stage2_hits":    float64(res.Stage2CacheHits),
		"gap":            res.OptimalityGap,
	})
	ok := true
	if st.WriteErrors > 0 {
		o.fail("interval: %d tolerated write errors", st.WriteErrors)
		ok = false
	}
	v := e.ctrl.Version()
	for _, err := range []error{
		checkCapacity(e.topo, e.m, res),
		checkRecords(e.db.records(controlplane.ConfigKey("")), controlplane.BuildConfigs(e.topo, e.m, res, v), v),
	} {
		o.check(err)
		ok = ok && err == nil
	}
	return &intervalSample{
		failover: failover, flows: e.m.NumFlows(), pairs: e.pairs, wall: end.Sub(start), res: res, stats: st,
		allocs: after.TotalAlloc - before.TotalAlloc, mallocs: after.Mallocs - before.Mallocs,
	}, ok
}

// drift changes the demand of a seeded share of flows.
func (e *teEnv) drift(cfg churnConfig, rng *rand.Rand) {
	for i := range e.m.Flows {
		if rng.Float64() < cfg.driftShare {
			e.m.Flows[i].DemandMbps *= 1 - cfg.driftAmp + 2*cfg.driftAmp*rng.Float64()
		}
	}
}

// failLink restores the previously failed link, if any, and fails a seeded
// link whose loss keeps the topology connected.
func (e *teEnv) failLink(prev topology.LinkID, rng *rand.Rand) (topology.LinkID, error) {
	if prev >= 0 {
		e.topo.RestoreLink(prev)
	}
	for try := 0; try < 100; try++ {
		l := topology.LinkID(rng.Intn(e.topo.NumLinks()))
		if e.topo.Links[l].Down {
			continue
		}
		e.topo.FailLink(l)
		if e.topo.Connected() {
			return l, nil
		}
		e.topo.RestoreLink(l)
	}
	return -1, fmt.Errorf("no link can fail without partitioning %s", e.topo.Name)
}

func runTEChurn(p params, tr *tracer, o *outcome) error {
	cfg := churnFull
	if p.short {
		cfg = churnShort
	}
	drifts, failovers := cfg.counts(p.seconds)
	var setups []float64
	var colds, loop []*intervalSample
	for k := 0; k < cfg.matrices; k++ {
		seed := p.seed*1_000_003 + int64(k)*7_919
		runtime.GC() // every set-up starts from the same heap
		start := time.Now()
		env, err := newTE(cfg, seed, tr)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		if err := env.churn(cfg, seed, drifts, failovers, o, tr, &colds, &loop); err != nil {
			env.close()
			return err
		}
		if k == cfg.matrices-1 {
			o.e2e["heap_retained_mb"] = retainedHeapMB()
			o.config["topology"] = cfg.topology
			o.config["endpoints"] = env.topo.NumEndpoints()
			o.config["mean_demand_mbps"] = env.demand
		}
		env.close()
	}
	o.e2e["setup_s"] = median(setups)
	o.config["matrices"] = cfg.matrices
	o.config["drift_share"] = cfg.driftShare
	o.config["drift_amp"] = cfg.driftAmp
	o.config["drift_intervals_per_matrix"] = drifts
	o.config["failover_intervals_per_matrix"] = failovers
	o.config["db_shards"] = dbShards
	o.config["solver"] = "SplitQoS+Incremental+FastPath, defaults otherwise"
	churnMetrics(o, colds, loop, tr)
	return nil
}

// churn runs one matrix: the cold interval, the seeded drift sequence, then
// the seeded failovers. Failovers come last so the links they fail cannot
// change the solver state the drift phase sees.
func (e *teEnv) churn(cfg churnConfig, seed int64, drifts, failovers int, o *outcome, tr *tracer, colds, loop *[]*intervalSample) error {
	cold, _ := e.runInterval(o, tr, false)
	if cold == nil {
		return fmt.Errorf("cold interval: %v", o.failures)
	}
	*colds = append(*colds, cold)
	driftRng := rand.New(rand.NewSource(seed + 17))
	failRng := rand.New(rand.NewSource(seed + 19))
	failed := topology.LinkID(-1)
	for i := 0; i < drifts+failovers; i++ {
		failover := i >= drifts
		if failover {
			var err error
			if failed, err = e.failLink(failed, failRng); err != nil {
				return err
			}
		} else {
			e.drift(cfg, driftRng)
		}
		if s, _ := e.runInterval(o, tr, failover); s != nil {
			*loop = append(*loop, s)
		}
	}
	return nil
}

// churnMetrics reduces the interval samples to te-churn's metrics.
func churnMetrics(o *outcome, colds, loop []*intervalSample, tr *tracer) {
	var coldMs, driftMs, failMs, rates, sat, merge, lp, ssp, tail []float64
	var hits, classSolves, s2hits, pairs, flows, allocs, mallocs float64
	var written, deleted, unchanged, fallbacks int
	for _, c := range colds {
		coldMs = append(coldMs, ms(c.wall))
		sat = append(sat, c.res.SatisfiedFraction())
	}
	gap := 0.0
	var log []string
	for _, s := range loop {
		log = append(log, fmt.Sprintf("%s %.1fms fastpath %d/%d stage2 %d", map[bool]string{false: "drift", true: "failover"}[s.failover],
			ms(s.wall), s.res.FastPathHits, s.res.FastPathHits+s.res.FastPathFallbacks, s.res.Stage2CacheHits))
		w := ms(s.wall)
		if s.failover {
			failMs = append(failMs, w)
		} else {
			driftMs = append(driftMs, w)
			if s.res.FastPathFallbacks > 0 {
				fallbacks++
			}
		}
		rates = append(rates, frac(float64(s.flows), s.wall.Seconds()))
		flows += float64(s.flows)
		pairs += float64(s.pairs)
		sat = append(sat, s.res.SatisfiedFraction())
		merge = append(merge, ms(s.res.SiteMergeTime))
		lp = append(lp, ms(s.res.SiteLPTime))
		ssp = append(ssp, ms(s.res.SSPTime))
		solve := s.res.SiteMergeTime + s.res.SiteLPTime + s.res.SSPTime
		tail = append(tail, ms(s.wall-solve))
		hits += float64(s.res.FastPathHits)
		classSolves += float64(s.res.FastPathHits + s.res.FastPathFallbacks)
		s2hits += float64(s.res.Stage2CacheHits)
		if s.res.OptimalityGap > gap {
			gap = s.res.OptimalityGap
		}
		written += s.stats.Written
		deleted += s.stats.Deleted
		unchanged += s.stats.Unchanged
		allocs += float64(s.allocs)
		mallocs += float64(s.mallocs)
	}
	n := float64(len(loop))
	o.config["interval_log"] = log
	o.config["cold_interval_ms"] = coldMs
	o.config["drift_fallback_frac"] = frac(float64(fallbacks), float64(len(driftMs)))
	o.e2e["cold_ms"] = median(coldMs)
	o.samples["cold_ms"] = fmt.Sprintf("p50 of %d cold intervals, one per matrix", len(coldMs))
	o.e2e["steady_ms"] = median(driftMs)
	o.samples["steady_ms"] = fmt.Sprintf("p50 of %d drift intervals", len(driftMs))
	o.e2e["slow_ms"] = median(failMs)
	o.samples["slow_ms"] = fmt.Sprintf("p50 of %d failover intervals", len(failMs))
	// The rate is taken per interval and its median reported: over the whole
	// loop (all flows over all interval time) it followed the few 1 s
	// intervals in which the largest class fell back, and spread 0.19-0.27
	// over ten seeds.
	o.e2e["rate_per_s"] = median(rates)
	o.samples["rate_per_s"] = fmt.Sprintf("p50 over %d drift and failover intervals of the matrix's flows / interval time", len(rates))
	o.e2e["quality_frac"] = median(sat)
	o.samples["quality_frac"] = fmt.Sprintf("p50 satisfied fraction of %d intervals", len(sat))

	o.layer["core.sitemerge_ms"] = mean(merge)
	o.layer["lp.maxsiteflow_ms"] = mean(lp)
	o.layer["ssp.fastssp_ms"] = mean(ssp)
	o.layer["lp.fastpath_hit_frac"] = frac(hits, classSolves)
	o.layer["lp.certified_gap"] = gap
	o.layer["core.stage2_cache_hit_frac"] = frac(s2hits, pairs)
	o.layer["controlplane.publish_tail_ms"] = mean(tail)
	o.layer["controlplane.records_written"] = float64(written)
	o.layer["controlplane.records_deleted"] = float64(deleted)
	o.layer["controlplane.records_unchanged"] = float64(unchanged)
	o.layer["go.alloc_mb_per_interval"] = frac(allocs/(1<<20), n)
	o.layer["go.mallocs_per_flow"] = frac(mallocs, flows)
	writeLayer(o, tr, "controller.")
}

// writeLayer fills the kvstore write metrics from the node spans under the
// controller's interval spans (traced runs only).
func writeLayer(o *outcome, tr *tracer, rootPrefix string) {
	durs, calls, keys := writeSpans(tr, rootPrefix)
	o.layer["kvstore.mput_ms_p50"] = median(durs)
	v, note := tail(durs)
	o.layer["kvstore.mput_ms_p99"] = v
	o.samples["kvstore.mput_ms_p99"] = note
	o.layer["cluster.keys_per_batch"] = frac(float64(keys), float64(calls))
}
