package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"megate/internal/controlplane"
	"megate/internal/traffic"
)

// TestShortRunsEmitEveryMetric runs each workload in short mode, untraced
// and traced: every run must pass its own correctness checks, report every
// metric of its set with its unit, and (traced) record spans at every layer
// boundary the workload crosses.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	boundaries := map[string][]string{
		"te-churn":   {"controller.RunInterval", "controller.OnLinkFailure", "kvstore.put", "kvstore.publish"},
		"agent-sync": {"controller.RunInterval", "agent.Poll", "kvstore.version", "kvstore.get", "kvstore.put"},
		"host-send":  {"hoststack.Send", "ebpf.EgressPacket", "packet.Encap.Serialize", "packet.FragmentFrame"},
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := execute(w, params{seed: DevSeed, seconds: 1, trace: traced, short: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if res.out.failed != 0 || res.out.attempted == 0 {
				t.Fatalf("%s trace=%v: %d of %d operations failed: %v", w.name, traced, res.out.failed, res.out.attempted, res.out.failures)
			}
			defs := e2eMetrics
			if traced {
				defs = layerMetrics
			}
			got := res.metricsJSON()
			if len(got) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, len(got), len(defs))
			}
			for _, d := range defs {
				m, ok := got[d.name]
				if !ok || m["unit"] != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or without unit %s", w.name, traced, d.name, d.unit)
				}
			}
			if !traced {
				for _, d := range e2eMetrics {
					if res.out.e2e[d.name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, res.out.e2e[d.name])
					}
				}
				continue
			}
			seen := make(map[string]bool)
			res.tr.each(func(s *span) { seen[s.Name] = true })
			for _, name := range boundaries[w.name] {
				if !seen[name] {
					t.Errorf("%s: no %s span", w.name, name)
				}
			}
		}
	}
}

func TestChecksFireOnTamperedRecords(t *testing.T) {
	env, err := newTE(churnShort, DevSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	res, _, err := env.ctrl.RunInterval(env.m)
	if err != nil {
		t.Fatal(err)
	}
	v := env.ctrl.Version()
	want := controlplane.BuildConfigs(env.topo, env.m, res, v)
	got := env.db.records(controlplane.ConfigKey(""))
	if err := checkRecords(got, want, v); err != nil {
		t.Fatalf("untouched records fail the check: %v", err)
	}
	var victim string
	for _, ins := range sortedKeys(want) {
		if len(want[ins].Paths) > 0 && len(want[ins].Paths[0].Hops) > 1 {
			victim = ins
			break
		}
	}
	if victim == "" {
		t.Fatal("no record with a multi-hop path")
	}
	key := controlplane.ConfigKey(victim)
	var rec controlplane.InstanceConfig
	if err := json.Unmarshal(got[key], &rec); err != nil {
		t.Fatal(err)
	}
	rec.Paths[0].Hops[1]++
	tampered, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]func(map[string][]byte){
		"tampered hop": func(m map[string][]byte) { m[key] = tampered },
		"stale key":    func(m map[string][]byte) { m[controlplane.ConfigKey("ins-gone")] = got[key] },
		"missing key":  func(m map[string][]byte) { delete(m, key) },
		"future version": func(m map[string][]byte) {
			r := rec
			r.Paths = want[victim].Paths
			r.Version = v + 1
			m[key], _ = json.Marshal(&r)
		},
	}
	for name, corrupt := range cases {
		m := make(map[string][]byte, len(got))
		for k, val := range got {
			m[k] = val
		}
		corrupt(m)
		if err := checkRecords(m, want, v); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestChecksFireOnOverloadAndDownLinks(t *testing.T) {
	env, err := newTE(churnShort, DevSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	res, _, err := env.ctrl.RunInterval(env.m)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCapacity(env.topo, env.m, res); err != nil {
		t.Fatalf("solver output fails the check: %v", err)
	}
	placed := -1
	for i, tn := range res.FlowTunnel {
		if tn != nil {
			placed = i
			break
		}
	}
	if placed < 0 {
		t.Fatal("no flow placed")
	}
	flows := append([]traffic.Flow(nil), env.m.Flows...)
	link := res.FlowTunnel[placed].Links[0]
	flows[placed].DemandMbps = 2 * env.topo.Links[link].CapacityMbps
	if err := checkCapacity(env.topo, traffic.NewMatrix(flows), res); err == nil {
		t.Error("overloaded link passed the capacity check")
	}
	env.topo.FailLink(link)
	defer env.topo.RestoreLink(link)
	if err := checkCapacity(env.topo, env.m, res); err == nil {
		t.Error("flow over a down link passed the capacity check")
	}
}

func TestChecksFireOnWrongFrames(t *testing.T) {
	env, err := newSend(sendShort, DevSeed)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	var withPath, noPath *sendFlow
	for i := range env.flows {
		f := &env.flows[i]
		if f.hops != nil && withPath == nil {
			withPath = f
		}
		if f.hops == nil && noPath == nil {
			noPath = f
		}
	}
	if withPath == nil || noPath == nil {
		t.Fatal("short host-send needs flows with and without paths")
	}
	payload := make([]byte, 4000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	frames, err := withPath.send(payload, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) < 2 {
		t.Fatalf("4000 B payload gave %d frames, want fragments", len(frames))
	}
	good := sentPacket{tuple: withPath.tuple, payload: payload, hops: withPath.hops}
	if sr, err := checkFrames(frames, good); err != nil || !sr {
		t.Fatalf("correct frames fail the check: sr=%v err=%v", sr, err)
	}
	wrongHop := good
	wrongHop.hops = append([]uint32(nil), withPath.hops...)
	wrongHop.hops[len(wrongHop.hops)-1]++
	badPayload := good
	badPayload.payload = append([]byte(nil), payload...)
	badPayload.payload[3000] ^= 1
	noHops := good
	noHops.hops = nil
	cases := map[string]struct {
		frames [][]byte
		want   sentPacket
	}{
		"wrong SR hop":     {frames, wrongHop},
		"unexpected SR":    {frames, noHops},
		"payload differs":  {frames, badPayload},
		"missing fragment": {frames[:len(frames)-1], good},
		"duplicate first":  {append([][]byte{frames[0]}, frames...), good},
		"truncated frame":  {[][]byte{frames[0][:30]}, good},
		"no frames at all": {nil, good},
	}
	for name, c := range cases {
		if _, err := checkFrames(c.frames, c.want); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}

	plain, err := noPath.send(payload[:64], nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sr, err := checkFrames(plain, sentPacket{tuple: noPath.tuple, payload: payload[:64]}); err != nil || sr {
		t.Fatalf("path-less send: sr=%v err=%v", sr, err)
	}
	if _, err := checkFrames(plain, sentPacket{tuple: noPath.tuple, payload: payload[:64], hops: []uint32{1, 2}}); err == nil {
		t.Error("missing SR header passed the check")
	}
}

func TestCheckHostFiresOnWrongPath(t *testing.T) {
	env, err := newSend(sendShort, DevSeed)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	h := env.hosts[0]
	rec := &controlplane.InstanceConfig{Instance: "ins-x", Paths: []controlplane.PathEntry{{DstSite: 3, Hops: []uint32{0, 2, 3}}}}
	h.InstallPath("ins-x", 3, []uint32{0, 2, 3})
	if err := checkHost(h, "ins-x", rec); err != nil {
		t.Fatalf("matching host fails the check: %v", err)
	}
	h.InstallPath("ins-x", 3, []uint32{0, 1, 3})
	if err := checkHost(h, "ins-x", rec); err == nil {
		t.Error("wrong hop passed the host check")
	}
	h.InstallPath("ins-x", 3, []uint32{0, 2, 3})
	h.InstallPath("ins-x", 5, []uint32{0, 5})
	if err := checkHost(h, "ins-x", rec); err == nil {
		t.Error("extra path passed the host check")
	}
}

// TestTracedRunWritesIdentically drives the same TE intervals through raw
// and span-recording node clients: the database must end with identical
// records and the servers must have seen identical operations, so the
// timing wrapper adds, drops and reroutes nothing. The optional batch and
// snapshot/delta interfaces are exercised through the cluster directly,
// since the TE loop itself does not call them.
func TestTracedRunWritesIdentically(t *testing.T) {
	type snapshot struct {
		records map[string][]byte
		ops     map[string]uint64
		batch   []int
		snapLen int
		deltas  int
	}
	run := func(tr *tracer) snapshot {
		env, err := newTE(churnShort, DevSeed, tr)
		if err != nil {
			t.Fatal(err)
		}
		defer env.close()
		o := newOutcome()
		if _, ok := env.runInterval(o, tr, false); !ok {
			t.Fatalf("cold interval: %v", o.failures)
		}
		env.drift(churnShort, newRand(3))
		if _, ok := env.runInterval(o, tr, false); !ok {
			t.Fatalf("drift interval: %v", o.failures)
		}
		if _, err := env.failLink(-1, newRand(4)); err != nil {
			t.Fatal(err)
		}
		if _, ok := env.runInterval(o, tr, true); !ok {
			t.Fatalf("failover interval: %v", o.failures)
		}
		failed, err := env.cc.PutBatch([]string{"x/a", "x/b", "x/c"}, [][]byte{[]byte("1"), []byte("2"), []byte("3")})
		if err != nil {
			t.Fatal(err)
		}
		_, recs, err := env.cc.OwnerSnapshot("x/a", "x/")
		if err != nil {
			t.Fatal(err)
		}
		_, entries, _ := env.cc.OwnerDelta("x/a", 0, "x/")
		return snapshot{records: env.db.records(""), ops: env.db.opCounts(), batch: failed, snapLen: len(recs), deltas: len(entries)}
	}
	plain := run(nil)
	tr := newTracer("test")
	traced := run(tr)
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("traced run differs from untraced:\nplain  %v\ntraced %v", plain.ops, traced.ops)
	}
	seen := make(map[string]bool)
	tr.each(func(s *span) { seen[s.Name] = true })
	for _, name := range []string{"kvstore.mput", "kvstore.snap", "kvstore.delta"} {
		if !seen[name] {
			t.Errorf("no %s span: the wrapper did not forward the optional interface", name)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json, which the result
// line is checked against, in step with the metrics the program reports:
// the same names, units and directions, in the same order.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %s %s %s, the program %s %s %s", kind, i, m.Name, m.Unit, m.Better, w.name, w.unit, w.better)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, e2eMetrics)
	same("per_layer", doc.PerLayer, layerMetrics)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, w.Name, workloads[i].name)
		}
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
