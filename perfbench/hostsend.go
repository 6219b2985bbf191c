package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"megate"
	"megate/internal/controlplane"
	"megate/internal/hoststack"
	"megate/internal/packet"
	"megate/internal/topology"
)

// sendSizes are the payload sizes host-send measures: per-packet cost
// dominates at 64 B, 1400 B fills an MTU, 4000 B is fragmented.
var sendSizes = []int{64, 1400, 4000}

// sendConfig sizes host-send.
type sendConfig struct {
	perSite, flowsPerEndpoint int
	// noPathShare of the connections have no installed path, so their
	// packets leave without an SR header.
	noPathShare float64
	// batch sends are timed together; probes is the call count of each
	// single-layer probe and of the allocation count per size; newConns
	// connections are opened per round, each timing its first send.
	batch, probes, newConns int
	// seconds, when set, replaces --seconds (short mode).
	seconds float64
}

// sendFull times sends in batches of 2048. At about 18 KB of garbage per
// packet a collection starts every few hundred packets, so a batch spans
// several whole collection cycles and measures their share of the cost
// instead of landing in or out of one; each round starts from a fresh
// collection, so every batch sees the same heap.
var sendFull = sendConfig{perSite: 16, flowsPerEndpoint: 4, noPathShare: 0.1, batch: 2048, probes: 20000, newConns: 8}

var sendShort = sendConfig{perSite: 2, flowsPerEndpoint: 2, noPathShare: 0.1, batch: 16, probes: 200, newConns: 2, seconds: 0.6}

const sendMTU = 1500

// sendFlow is one instance connection with what its packets must carry.
type sendFlow struct {
	host     *hoststack.Host
	pid      int
	tuple    packet.FiveTuple
	vni      uint32
	src, dst [4]byte
	hops     []uint32
}

type sendEnv struct {
	hosts []*hoststack.Host
	flows []sendFlow
}

func (e *sendEnv) close() {
	for _, h := range e.hosts {
		h.Close()
	}
}

// newSend builds one host per B4* site, runs each instance as a process,
// opens its connections, and installs the SR paths a TE solve chose for it,
// leaving a seeded share of paths uninstalled.
func newSend(cfg sendConfig, seed int64) (*sendEnv, error) {
	topo := megate.BuildTopology("B4*")
	megate.AttachEndpointsExact(topo, cfg.perSite)
	plan, err := megate.NewIPPlan(topo)
	if err != nil {
		return nil, err
	}
	m := megate.GenerateTraffic(topo, megate.TrafficOptions{Seed: seed + 1, FlowsPerEndpoint: float64(cfg.flowsPerEndpoint), MeanDemandMbps: 10})
	res, err := megate.NewSolver(topo, solverOptions).Solve(m)
	if err != nil {
		return nil, fmt.Errorf("solve: %w", err)
	}
	env := &sendEnv{}
	for s := range topo.Sites {
		env.hosts = append(env.hosts, megate.NewHost(fmt.Sprintf("host-%d", s), sendMTU, plan.SiteOf))
	}
	pid := func(ep topology.EndpointID) int { return 1000 + int(ep) }
	for _, ep := range topo.Endpoints {
		env.hosts[ep.Site].RunProcess(pid(ep.ID), ep.Instance)
	}
	rng := rand.New(rand.NewSource(seed*7_919 + 11))
	type pathKey struct {
		ins string
		dst uint32
	}
	// Leave seeded paths uninstalled until noPathShare of the flows have
	// none, so the SR share is the same in every run.
	flowsOn := make(map[pathKey]int)
	for _, f := range m.Flows {
		flowsOn[pathKey{topo.Endpoints[f.Src].Instance, uint32(f.Pair.Dst)}]++
	}
	cfgs := controlplane.BuildConfigs(topo, m, res, 1)
	var keys []pathKey
	for _, ins := range sortedKeys(cfgs) {
		for _, p := range cfgs[ins].Paths {
			keys = append(keys, pathKey{ins, p.DstSite})
		}
	}
	rng.Shuffle(len(keys), func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })
	skip := make(map[pathKey]bool)
	for i, without := 0, 0; i < len(keys) && float64(without) < cfg.noPathShare*float64(len(m.Flows)); i++ {
		skip[keys[i]] = true
		without += flowsOn[keys[i]]
	}
	installed := make(map[pathKey][]uint32)
	for _, ins := range sortedKeys(cfgs) {
		site := topo.Endpoints[endpointOf(topo, ins)].Site
		for _, p := range cfgs[ins].Paths {
			if k := (pathKey{ins, p.DstSite}); !skip[k] {
				env.hosts[site].InstallPathTier(ins, p.DstSite, p.Hops, p.Tier)
				installed[k] = p.Hops
			}
		}
	}
	for i, f := range m.Flows {
		src := topo.Endpoints[f.Src]
		t := packet.FiveTuple{
			SrcIP: plan.IPOf(f.Src), DstIP: plan.IPOf(f.Dst), Proto: packet.IPProtoUDP,
			SrcPort: uint16(20000 + i), DstPort: uint16(1024 + rng.Intn(30000)),
		}
		h := env.hosts[src.Site]
		h.OpenConnection(pid(f.Src), t)
		env.flows = append(env.flows, sendFlow{
			host: h, pid: pid(f.Src), tuple: t, vni: uint32(1 + int(f.Src)%4000),
			src: [4]byte{192, 168, 0, byte(src.Site)}, dst: [4]byte{192, 168, 0, byte(f.Pair.Dst)},
			hops: installed[pathKey{src.Instance, uint32(f.Pair.Dst)}],
		})
	}
	rng.Shuffle(len(env.flows), func(a, b int) { env.flows[a], env.flows[b] = env.flows[b], env.flows[a] })
	return env, nil
}

// endpointOf finds an instance's endpoint (instances are unique per
// endpoint).
func endpointOf(topo *topology.Topology, ins string) topology.EndpointID {
	for _, ep := range topo.Endpoints {
		if ep.Instance == ins {
			return ep.ID
		}
	}
	return 0
}

// sendStats accumulates verified sends.
type sendStats struct {
	packets, sr int
}

// send runs one Host.Send and records its span.
func (f *sendFlow) send(payload []byte, tr *tracer, parent uint64) ([][]byte, error) {
	id := tr.id()
	start := time.Now()
	frames, err := f.host.Send(f.tuple, f.vni, f.src, f.dst, payload)
	if tr != nil {
		tr.add("hoststack.Send", id, parent, start, time.Now(), map[string]float64{"bytes": float64(len(payload))})
	}
	return frames, err
}

// verify checks one send's frames and counts it.
func (f *sendFlow) verify(o *outcome, st *sendStats, frames [][]byte, err error, payload []byte) {
	o.attempted++
	if err != nil {
		o.fail("send: %v", err)
		return
	}
	sr, err := checkFrames(frames, sentPacket{tuple: f.tuple, payload: payload, hops: f.hops})
	if err != nil {
		o.fail("%v", err)
		return
	}
	st.packets++
	if sr {
		st.sr++
	}
}

func runHostSend(p params, tr *tracer, o *outcome) error {
	cfg := sendFull
	seconds := p.seconds
	if p.short {
		cfg = sendShort
		seconds = cfg.seconds
	}
	env, setup, err := medianSetup(
		func() (*sendEnv, error) { return newSend(cfg, p.seed) },
		func(e *sendEnv) { e.close() })
	if err != nil {
		return err
	}
	defer env.close()
	o.e2e["setup_s"] = setup
	o.config["topology"] = "B4*"
	o.config["hosts"] = len(env.hosts)
	o.config["flows"] = len(env.flows)
	o.config["no_path_share"] = cfg.noPathShare
	o.config["mtu"] = sendMTU
	o.config["batch"] = cfg.batch
	o.config["sizes"] = sendSizes
	o.config["sender_goroutines"] = 1

	rng := rand.New(rand.NewSource(p.seed*1_000_003 + 41))
	payloads := make(map[int][]byte, len(sendSizes))
	for _, n := range sendSizes {
		b := make([]byte, n)
		_, _ = rng.Read(b) // math/rand's Read always fills b and returns nil
		payloads[n] = b
	}
	var st sendStats

	// Each round starts from a full collection, sends one timed batch per
	// payload size, round-robin over the connections, then the first 1400 B
	// packet of each of a few freshly opened connections. Interleaving
	// spreads every measure over the whole run, so a slower stretch of the
	// machine weighs on all of them alike. Frames are verified after their
	// batch's clock stops.
	frames := make([][][]byte, cfg.batch)
	errs := make([]error, cfg.batch)
	perPkt := make(map[int][]float64, len(sendSizes))
	var first []float64
	next := 0
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for round := 0; round < 10 || time.Now().Before(deadline); round++ {
		runtime.GC()
		for _, n := range sendSizes {
			payload := payloads[n]
			id := tr.id()
			start := time.Now()
			for j := 0; j < cfg.batch; j++ {
				frames[j], errs[j] = env.flows[(next+j)%len(env.flows)].send(payload, tr, id)
			}
			end := time.Now()
			tr.add("bench.SendBatch", id, 0, start, end, map[string]float64{"bytes": float64(n), "calls": float64(cfg.batch)})
			perPkt[n] = append(perPkt[n], float64(end.Sub(start).Nanoseconds())/float64(cfg.batch))
			for j := 0; j < cfg.batch; j++ {
				env.flows[(next+j)%len(env.flows)].verify(o, &st, frames[j], errs[j], payload)
				frames[j] = nil
			}
			next = (next + cfg.batch) % len(env.flows)
		}
		for j := 0; j < cfg.newConns; j++ {
			f := env.flows[rng.Intn(len(env.flows))]
			f.tuple.SrcPort = uint16(40000 + (round*cfg.newConns+j)%20000)
			f.host.OpenConnection(f.pid, f.tuple)
			start := time.Now()
			fr, err := f.send(payloads[1400], tr, 0)
			first = append(first, ms(time.Since(start)))
			f.verify(o, &st, fr, err, payloads[1400])
		}
	}
	for _, n := range sendSizes {
		o.layer[fmt.Sprintf("hoststack.send_ns_%d", n)] = median(perPkt[n])
		o.samples[fmt.Sprintf("hoststack.send_ns_%d", n)] = fmt.Sprintf("p50 of %d batches of %d", len(perPkt[n]), cfg.batch)
	}
	o.e2e["cold_ms"] = median(first)
	o.samples["cold_ms"] = fmt.Sprintf("p50 first 1400 B send of %d new connections", len(first))
	o.e2e["rate_per_s"] = frac(1e9, o.layer["hoststack.send_ns_64"])
	o.e2e["steady_ms"] = o.layer["hoststack.send_ns_1400"] / 1e6
	o.e2e["slow_ms"] = o.layer["hoststack.send_ns_4000"] / 1e6
	o.e2e["quality_frac"] = frac(float64(st.sr), float64(st.packets))
	o.samples["quality_frac"] = fmt.Sprintf("SR share of %d verified packets", st.packets)
	o.layer["hoststack.sr_frac"] = o.e2e["quality_frac"]

	allocsPerPacket(o, env, cfg, payloads)
	layerProbes(o, env, cfg, payloads, tr)
	o.e2e["heap_retained_mb"] = retainedHeapMB()
	return nil
}

// allocsPerPacket counts heap allocations and bytes per Host.Send at each
// size over a block of untraced sends.
func allocsPerPacket(o *outcome, env *sendEnv, cfg sendConfig, payloads map[int][]byte) {
	for _, n := range sendSizes {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < cfg.probes; i++ {
			f := &env.flows[i%len(env.flows)]
			_, _ = f.host.Send(f.tuple, f.vni, f.src, f.dst, payloads[n])
		}
		runtime.ReadMemStats(&after)
		o.layer[fmt.Sprintf("hoststack.allocs_per_pkt_%d", n)] = float64(after.Mallocs-before.Mallocs) / float64(cfg.probes)
		o.layer[fmt.Sprintf("hoststack.bytes_per_pkt_%d", n)] = float64(after.TotalAlloc-before.TotalAlloc) / float64(cfg.probes)
	}
}

// layerProbes times the data-plane layers under Host.Send one at a time:
// the TC egress chain on a prebuilt 1400 B frame, VXLAN encapsulation of a
// 1400 B inner frame, and fragmentation of a 4000 B frame. Each probe runs
// in batches; a traced run records one span per batch.
func layerProbes(o *outcome, env *sendEnv, cfg sendConfig, payloads map[int][]byte, tr *tracer) {
	var f *sendFlow
	for i := range env.flows {
		if env.flows[i].hops != nil {
			f = &env.flows[i]
			break
		}
	}
	if f == nil {
		f = &env.flows[0]
	}
	encap := func(n int) *packet.Encap {
		var inner packet.SerializeBuffer
		ip := packet.IPv4{TTL: 64, Protocol: f.tuple.Proto, Src: f.tuple.SrcIP, Dst: f.tuple.DstIP}
		udp := packet.UDP{SrcPort: f.tuple.SrcPort, DstPort: f.tuple.DstPort}
		if err := packet.SerializeLayers(&inner, &packet.Ethernet{EtherType: packet.EtherTypeIPv4}, &ip, &udp, packet.Payload(payloads[n])); err != nil {
			o.fail("probe: inner frame: %v", err)
		}
		return &packet.Encap{
			Eth:   packet.Ethernet{EtherType: packet.EtherTypeIPv4},
			IP:    packet.IPv4{TTL: 64, Protocol: packet.IPProtoUDP, Src: f.src, Dst: f.dst},
			UDP:   packet.UDP{SrcPort: 49152, DstPort: packet.VXLANPort},
			VXLAN: packet.VXLAN{VNI: f.vni},
			Inner: append([]byte(nil), inner.Bytes()...),
		}
	}
	e1400, e4000 := encap(1400), encap(4000)
	frame1400, err1 := e1400.Serialize()
	frame4000, err2 := e4000.Serialize()
	if err1 != nil || err2 != nil {
		o.fail("probe: serialize: %v %v", err1, err2)
		return
	}
	probe := func(name string, call func() error) float64 {
		const batch = 256
		var per []float64
		for done := 0; done < cfg.probes; done += batch {
			id := tr.id()
			start := time.Now()
			for j := 0; j < batch; j++ {
				if err := call(); err != nil {
					o.fail("probe %s: %v", name, err)
					return 0
				}
			}
			end := time.Now()
			tr.add(name, id, 0, start, end, map[string]float64{"calls": batch})
			per = append(per, float64(end.Sub(start).Nanoseconds())/batch)
		}
		return median(per)
	}
	o.layer["ebpf.egress_ns"] = probe("ebpf.EgressPacket", func() error {
		if _, ok := f.host.Kernel.EgressPacket(frame1400); !ok {
			return fmt.Errorf("frame dropped")
		}
		return nil
	})
	o.layer["packet.encap_ns"] = probe("packet.Encap.Serialize", func() error {
		_, err := e1400.Serialize()
		return err
	})
	o.layer["packet.fragment_ns"] = probe("packet.FragmentFrame", func() error {
		_, err := packet.FragmentFrame(frame4000, sendMTU)
		return err
	})
}
