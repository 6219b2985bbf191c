package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"megate"
	"megate/internal/cluster"
	"megate/internal/controlplane"
	"megate/internal/hoststack"
	"megate/internal/stats"
)

// syncConfig sizes agent-sync.
type syncConfig struct {
	churn churnConfig // the small controller's topology and demand
	// window is each agent's poll period; agents poll at a seeded offset
	// inside it, so the offered poll rate is endpoints/window.
	window time.Duration
	// cadence is the controller's interval period, a whole number of poll
	// windows so every version has the same number of poll rounds.
	cadence time.Duration
	// workers poll the agents due on their share of the schedule.
	workers int
	// onTime is the poll latency limit (from the slot's due time) counted
	// by quality_frac.
	onTime time.Duration
	// seconds, when set, replaces --seconds (short mode).
	seconds float64
}

// syncFull offers 2000 polls/s (2000 agents, a 1 s window): about a third of
// the poll capacity the two workers show (rate_per_s, 5700-7200 polls/s on a
// 2-core machine); the header's worker_busy_frac records the share.
// fleetsim's default 500 ms poll interval loaded them to 55-60%, and the p99
// poll latency then followed garbage-collector stalls. The controller
// publishes every 2 windows, so half of the polls find a new version.
var syncFull = syncConfig{
	churn: churnConfig{
		topology: "B4*", endpoints: 2000, load: 0.6,
		driftShare: 0.05, driftAmp: 0.3,
	},
	window: time.Second, cadence: 2 * time.Second, workers: 2, onTime: 10 * time.Millisecond,
}

var syncShort = syncConfig{
	churn: churnConfig{
		topology: "B4*", endpoints: 200, load: 0.35,
		driftShare: 0.05, driftAmp: 0.2,
	},
	window: 200 * time.Millisecond, cadence: 400 * time.Millisecond, workers: 2,
	onTime: 10 * time.Millisecond, seconds: 1.5,
}

// syncFleetSeed fixes agent-sync's endpoint layout and base matrix; --seed
// drives the poll slots and the demand drift. The records an agent reads
// are sized by the matrix (paths per instance), and with a seeded matrix the
// per-poll service time differed by about 10% from seed to seed, so the
// read-path times would have measured the seed instead of the code.
const syncFleetSeed = 1

// syncAgent is one endpoint: its agent, host and place on the schedule.
type syncAgent struct {
	agent  *controlplane.Agent
	host   *hoststack.Host
	offset time.Duration
}

// pollEvent is one completed poll as a worker saw it.
type pollEvent struct {
	agent         int
	due, at, done time.Time
	updated       bool
	err           error
	version       uint64
	pathHash      uint64
}

// change is one record the controller changed at a version: handed is when
// the interval's matrix went to the controller, published when the version
// was published.
type change struct {
	version           uint64
	handed, published time.Time
	hash              uint64
}

type syncEnv struct {
	te      *teEnv
	agents  []*syncAgent
	clients []*cluster.Client
	cells   []*spanCell
}

func newSync(cfg syncConfig, seed int64, tr *tracer) (*syncEnv, error) {
	te, err := newTE(cfg.churn, syncFleetSeed, tr)
	if err != nil {
		return nil, err
	}
	env := &syncEnv{te: te}
	for w := 0; w < cfg.workers; w++ {
		cell := &spanCell{}
		cc, err := te.db.client(tr, cell)
		if err != nil {
			env.close()
			return nil, err
		}
		env.clients = append(env.clients, cc)
		env.cells = append(env.cells, cell)
	}
	rng := rand.New(rand.NewSource(seed*7_919 + 5))
	for i, ep := range te.topo.Endpoints {
		host := megate.NewHost(ep.Instance, 1500, nil)
		a := megate.NewClusterAgent(ep.Instance, env.clients[i%cfg.workers], host)
		a.Metrics = te.db.clientReg
		off := time.Duration(rng.Int63n(int64(cfg.window)))
		env.agents = append(env.agents, &syncAgent{agent: a, host: host, offset: off})
	}
	return env, nil
}

func (e *syncEnv) close() {
	for _, a := range e.agents {
		a.host.Close()
	}
	for _, cc := range e.clients {
		cc.Close()
	}
	e.te.close()
}

// poll runs one agent poll for a worker, timed from its due time.
func (e *syncEnv) poll(w, i int, due time.Time, tr *tracer) pollEvent {
	a := e.agents[i]
	id := tr.id()
	e.cells[w].id.Store(id)
	at := time.Now()
	updated, err := a.agent.Poll()
	done := time.Now()
	e.cells[w].id.Store(0)
	ev := pollEvent{agent: i, due: due, at: at, done: done, updated: updated, err: err, version: a.agent.LastVersion()}
	if updated {
		ev.pathHash = pathsHash(hostPaths(a.host, a.agent.Instance))
	}
	if tr != nil {
		tr.add("agent.Poll", id, 0, at, done, map[string]float64{
			"due_ns": float64(due.Sub(tr.t0)), "updated": float64(boolInt(updated)), "version": float64(ev.version),
		})
	}
	return ev
}

func runAgentSync(p params, tr *tracer, o *outcome) error {
	cfg := syncFull
	seconds := p.seconds
	if p.short {
		cfg = syncShort
		seconds = cfg.seconds
	}
	env, setup, err := medianSetup(
		func() (*syncEnv, error) { return newSync(cfg, p.seed, tr) },
		func(e *syncEnv) { e.close() })
	if err != nil {
		return err
	}
	defer env.close()
	o.e2e["setup_s"] = setup
	o.config["topology"] = cfg.churn.topology
	o.config["agents"] = len(env.agents)
	o.config["flows"] = env.te.m.NumFlows()
	o.config["poll_window_ms"] = ms(cfg.window)
	o.config["interval_cadence_ms"] = ms(cfg.cadence)
	o.config["workers"] = cfg.workers
	o.config["db_shards"] = dbShards
	o.config["protocol"] = "version poll + GET against the home shard"
	o.config["solver"] = "SplitQoS+Incremental+FastPath, defaults otherwise"

	te := env.te
	start := time.Now()
	stop := start.Add(time.Duration(seconds * float64(time.Second)))
	rng := rand.New(rand.NewSource(p.seed*1_000_003 + 29))

	// The controller runs a drift interval every cadence; the workers poll
	// their agents on the slot schedule. history[i] lists instance i's
	// record changes, in version order.
	history := make([][]change, len(env.agents))
	var intervalMs []float64
	var wg sync.WaitGroup
	var ctrlFailures []string
	ctrlAttempted := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := make([]uint64, len(env.agents))
		for k := 0; ; k++ {
			next := start.Add(time.Duration(k) * cfg.cadence)
			if !next.Before(stop) {
				return
			}
			time.Sleep(time.Until(next))
			if k > 0 {
				te.drift(cfg.churn, rng)
			}
			id := tr.id()
			te.cell.id.Store(id)
			handed := time.Now()
			res, _, err := te.ctrl.RunInterval(te.m)
			end := time.Now()
			te.cell.id.Store(0)
			tr.add("controller.RunInterval", id, 0, handed, end, nil)
			ctrlAttempted++
			if err != nil {
				ctrlFailures = append(ctrlFailures, fmt.Sprintf("interval: %v", err))
				continue
			}
			if st := te.ctrl.LastStats(); st.WriteErrors > 0 {
				ctrlFailures = append(ctrlFailures, fmt.Sprintf("interval: %d tolerated write errors", st.WriteErrors))
			}
			intervalMs = append(intervalMs, ms(end.Sub(handed)))
			v := te.ctrl.Version()
			cfgs := controlplane.BuildConfigs(te.topo, te.m, res, v)
			for i, a := range env.agents {
				h := pathsHash(nil)
				if c, ok := cfgs[a.agent.Instance]; ok {
					h = pathsHash(c.Paths)
				}
				if k == 0 || h != prev[i] {
					history[i] = append(history[i], change{version: v, handed: handed, published: end, hash: h})
				}
				prev[i] = h
			}
		}
	}()

	events := make([][]pollEvent, cfg.workers)
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []int
			for i := w; i < len(env.agents); i += cfg.workers {
				mine = append(mine, i)
			}
			sort.Slice(mine, func(a, b int) bool { return env.agents[mine[a]].offset < env.agents[mine[b]].offset })
			for round := 0; ; round++ {
				base := start.Add(time.Duration(round) * cfg.window)
				for _, i := range mine {
					due := base.Add(env.agents[i].offset)
					if !due.Before(stop) {
						return
					}
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
					events[w] = append(events[w], env.poll(w, i, due, tr))
				}
			}
		}(w)
	}
	wg.Wait()
	measured := time.Since(start)

	// Quiesce: every agent polls once more, then each host must hold exactly
	// its record at the final version.
	final := te.ctrl.Version()
	for i := range env.agents {
		env.poll(i%cfg.workers, i, time.Now(), tr)
	}
	recs := te.db.records(controlplane.ConfigKey(""))
	for _, a := range env.agents {
		var rec *controlplane.InstanceConfig
		if data, ok := recs[controlplane.ConfigKey(a.agent.Instance)]; ok {
			rec = &controlplane.InstanceConfig{}
			if err := json.Unmarshal(data, rec); err != nil {
				o.check(err)
				continue
			}
		}
		err := checkHost(a.host, a.agent.Instance, rec)
		if err == nil && a.agent.LastVersion() != final {
			err = fmt.Errorf("agent %s at version %d after quiesce, published %d", a.agent.Instance, a.agent.LastVersion(), final)
		}
		o.check(err)
	}

	o.e2e["heap_retained_mb"] = retainedHeapMB()
	o.attempted += ctrlAttempted
	for _, f := range ctrlFailures {
		o.fail("%s", f)
	}
	syncMetrics(o, env, cfg, events, history, intervalMs, start, measured, tr)
	return nil
}

// syncPeriod collects one controller period's polls (by due time) and
// install lags (by publication time).
type syncPeriod struct {
	svc, due, lags []float64
	onTime         int
}

// firstSlot returns an agent's first poll slot due at or after t: slots
// fall at start + r*window + offset.
func firstSlot(start time.Time, window, offset time.Duration, t time.Time) time.Time {
	due := start.Add(offset)
	if t.After(due) {
		r := (t.Sub(due) + window - 1) / window
		due = due.Add(r * window)
	}
	return due
}

// syncMetrics matches installs to record changes and reduces the poll
// events to agent-sync's metrics. A change at version v of an instance is
// installed by the first update poll that applied version v or later, or
// that left the host holding the change's paths: the GET follows the version
// read, so it can return a record written ahead of its version's
// publication. For the same reason an update poll that applied version u
// must leave the host with the paths in effect at u or those of a later
// change; anything else counts as a failed operation.
func syncMetrics(o *outcome, env *syncEnv, cfg syncConfig, events [][]pollEvent, history [][]change,
	intervalMs []float64, start time.Time, measured time.Duration, tr *tracer) {
	byAgent := make([][]pollEvent, len(env.agents))
	var all, nochange, update, due, late []float64
	polls, updates, errs := 0, 0, 0
	// The end-to-end figures are taken per controller period (one cadence)
	// and reported as the median over the periods after the cold one, so a
	// stretch in which the machine runs slow moves a few periods, not the
	// run's figure.
	periods := make([]syncPeriod, int(measured/cfg.cadence)+1)
	period := func(t time.Time) *syncPeriod {
		return &periods[min(len(periods)-1, max(0, int(t.Sub(start)/cfg.cadence)))]
	}
	for _, evs := range events {
		for _, ev := range evs {
			polls++
			svc := ms(ev.done.Sub(ev.at))
			fromDue := ms(ev.done.Sub(ev.due))
			all = append(all, svc)
			due = append(due, fromDue)
			late = append(late, ms(ev.at.Sub(ev.due)))
			pp := period(ev.due)
			pp.svc = append(pp.svc, svc)
			pp.due = append(pp.due, fromDue)
			if ev.done.Sub(ev.due) <= cfg.onTime {
				pp.onTime++
			}
			switch {
			case ev.err != nil:
				errs++
				o.fail("poll %s: %v", env.agents[ev.agent].agent.Instance, ev.err)
			case ev.updated:
				updates++
				update = append(update, svc)
				byAgent[ev.agent] = append(byAgent[ev.agent], ev)
			default:
				nochange = append(nochange, svc)
			}
		}
	}
	o.attempted += polls

	var lags []float64
	cold := time.Duration(0)
	for i, hist := range history {
		evs := byAgent[i]
		sort.Slice(evs, func(a, b int) bool { return evs[a].done.Before(evs[b].done) })
		for _, ev := range evs {
			ok := false
			for ci, c := range hist {
				effective := c.version <= ev.version && (ci == len(hist)-1 || hist[ci+1].version > ev.version)
				if c.hash == ev.pathHash && (effective || c.version > ev.version) {
					ok = true
					break
				}
			}
			o.attempted++
			if !ok {
				o.fail("agent %s: host paths after applying version %d match no published record", env.agents[i].agent.Instance, ev.version)
			}
		}
		for ci, c := range hist {
			for _, ev := range evs {
				if ev.version >= c.version || ev.pathHash == c.hash && ev.done.After(c.handed) {
					if ci == 0 && c.version == 1 {
						cold = max(cold, ev.done.Sub(c.handed))
					} else {
						// The lag runs from the agent's first poll slot due
						// at or after publication (or from the installing
						// poll's own slot, if the record was read before
						// publication), so the wait for the slot drops out
						// and what is left is the read path.
						from := firstSlot(start, cfg.window, env.agents[i].offset, c.published)
						if ev.due.Before(from) {
							from = ev.due
						}
						lag := ms(ev.done.Sub(from))
						lags = append(lags, lag)
						pp := period(c.published)
						pp.lags = append(pp.lags, lag)
					}
					break
				}
			}
		}
	}
	busy := stats.Sum(all) / 1000
	o.config["worker_busy_frac"] = frac(busy, float64(cfg.workers)*measured.Seconds())
	var lagP50, svcMean, onTimeFrac []float64
	for _, pp := range periods[1:] {
		if len(pp.lags) > 0 {
			lagP50 = append(lagP50, median(pp.lags))
		}
		if len(pp.due) > 0 {
			svcMean = append(svcMean, mean(pp.svc))
			onTimeFrac = append(onTimeFrac, frac(float64(pp.onTime), float64(len(pp.due))))
		}
	}
	o.config["period_install_lag_p50_ms"] = lagP50
	o.config["period_poll_service_mean_ms"] = svcMean
	o.e2e["cold_ms"] = ms(cold)
	o.samples["cold_ms"] = "cold fleet sync: the matrix handed to the controller to the last agent's host holding its paths"
	o.e2e["steady_ms"] = median(lagP50)
	o.samples["steady_ms"] = fmt.Sprintf("p50 over %d periods of the period's p50 install lag (%d record changes), from the first poll slot due after publication", len(lagP50), len(lags))
	// The tail is the poll's own service time. Timed from the due time it
	// also holds the queue in front of the workers, which on a 2-core
	// machine follows the machine's speed from run to run too closely for a
	// bound (its spread over ten seeds was 0.19-0.31); that tail is the
	// per-layer controlplane.poll_due_ms_p99, and the queue shows in
	// steady_ms, which is timed from the due slot.
	o.e2e["slow_ms"], o.samples["slow_ms"] = tail(all)
	o.samples["slow_ms"] = "Agent.Poll service time, " + o.samples["slow_ms"]
	o.e2e["rate_per_s"] = frac(float64(cfg.workers), median(svcMean)/1000)
	o.samples["rate_per_s"] = fmt.Sprintf("%d workers / p50 over %d periods of the mean poll service time (%d polls)", cfg.workers, len(svcMean), polls)
	o.e2e["quality_frac"] = median(onTimeFrac)
	o.samples["quality_frac"] = fmt.Sprintf("p50 over %d periods of the share of polls done within %v of due (%d polls)", len(onTimeFrac), cfg.onTime, polls)

	o.layer["controlplane.install_lag_ms_p99"], o.samples["controlplane.install_lag_ms_p99"] = tail(lags)
	o.layer["controlplane.poll_ms_p50"] = median(all)
	o.layer["controlplane.poll_ms_p99"] = o.e2e["slow_ms"]
	o.layer["controlplane.poll_nochange_ms_p50"] = median(nochange)
	o.layer["controlplane.poll_nochange_ms_p99"], o.samples["controlplane.poll_nochange_ms_p99"] = tail(nochange)
	o.layer["controlplane.poll_update_ms_p50"] = median(update)
	o.layer["controlplane.poll_update_ms_p99"], o.samples["controlplane.poll_update_ms_p99"] = tail(update)
	o.layer["controlplane.poll_due_ms_p50"] = median(due)
	o.layer["controlplane.poll_due_ms_p99"], o.samples["controlplane.poll_due_ms_p99"] = tail(due)
	o.layer["controlplane.update_frac"] = frac(float64(updates), float64(polls))
	o.layer["controlplane.poll_error_frac"] = frac(float64(errs), float64(polls))
	o.layer["kvstore.server_version_ms"] = env.te.db.serverMeanMs("version")
	o.layer["kvstore.server_get_ms"] = env.te.db.serverMeanMs("get")
	o.layer["controlplane.interval_ms"] = mean(intervalMs)
	o.layer["bench.gen_late_ms_p99"], o.samples["bench.gen_late_ms_p99"] = tail(late)
	writeLayer(o, tr, "controller.")
}
