package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"megate/internal/controlplane"
	"megate/internal/core"
	"megate/internal/hoststack"
	"megate/internal/packet"
	"megate/internal/topology"
	"megate/internal/traffic"
)

// checkCapacity verifies a TE result against the topology it was solved on:
// no link carries more than its capacity and no placed flow crosses a down
// link.
func checkCapacity(topo *topology.Topology, m *traffic.Matrix, res *core.Result) error {
	if len(res.FlowTunnel) != len(m.Flows) {
		return fmt.Errorf("capacity: result has %d flow assignments for %d flows", len(res.FlowTunnel), len(m.Flows))
	}
	load := make([]float64, topo.NumLinks())
	for i, tn := range res.FlowTunnel {
		if tn == nil {
			continue
		}
		for _, l := range tn.Links {
			if topo.Links[l].Down {
				return fmt.Errorf("capacity: flow %d routed over down link %d", i, l)
			}
			load[l] += m.Flows[i].DemandMbps
		}
	}
	for l, v := range load {
		c := topo.Links[l].CapacityMbps
		if v > c*(1+1e-6)+1e-6 {
			return fmt.Errorf("capacity: link %d carries %.3f Mbps over capacity %.3f", l, v, c)
		}
	}
	return nil
}

// checkRecords verifies the database at a published version: it holds
// exactly one record per instance of want (no stale keys), and each record's
// paths equal the expected configuration. A record unchanged since an
// earlier interval keeps that interval's version, so the version field need
// only not run ahead of the published one.
func checkRecords(got map[string][]byte, want map[string]*controlplane.InstanceConfig, version uint64) error {
	for key := range got {
		if _, ok := want[strings.TrimPrefix(key, controlplane.ConfigKey(""))]; !ok {
			return fmt.Errorf("records: stale key %s at version %d", key, version)
		}
	}
	for ins, cfg := range want {
		data, ok := got[controlplane.ConfigKey(ins)]
		if !ok {
			return fmt.Errorf("records: %s missing at version %d", ins, version)
		}
		var rec controlplane.InstanceConfig
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("records: %s: %v", ins, err)
		}
		if rec.Instance != ins || rec.Version > version {
			return fmt.Errorf("records: %s holds instance %q version %d at published version %d", ins, rec.Instance, rec.Version, version)
		}
		if pathsHash(rec.Paths) != pathsHash(cfg.Paths) {
			return fmt.Errorf("records: %s paths differ from the interval's result at version %d", ins, version)
		}
	}
	return nil
}

// pathsHash fingerprints a path list independently of its order.
func pathsHash(paths []controlplane.PathEntry) uint64 {
	ps := append([]controlplane.PathEntry(nil), paths...)
	sort.Slice(ps, func(a, b int) bool { return ps[a].DstSite < ps[b].DstSite })
	h := fnv.New64a()
	var buf [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
	}
	put(uint32(len(ps)))
	for _, p := range ps {
		put(p.DstSite)
		put(uint32(p.Tier))
		put(uint32(len(p.Hops)))
		for _, hop := range p.Hops {
			put(hop)
		}
	}
	return h.Sum64()
}

// hostPaths reads an instance's entries from a host's path_map.
func hostPaths(h *hoststack.Host, instance string) []controlplane.PathEntry {
	var out []controlplane.PathEntry
	h.PathMap.Iterate(func(k hoststack.PathKey, v hoststack.Path) bool {
		if k.Instance == instance {
			out = append(out, controlplane.PathEntry{DstSite: k.DstSite, Hops: v.Hops, Tier: v.Tier})
		}
		return true
	})
	return out
}

// checkHost verifies that a host's path_map holds exactly the paths of the
// instance's record (nil record: no paths).
func checkHost(h *hoststack.Host, instance string, rec *controlplane.InstanceConfig) error {
	var want []controlplane.PathEntry
	if rec != nil {
		want = rec.Paths
	}
	if got := hostPaths(h, instance); pathsHash(got) != pathsHash(want) {
		return fmt.Errorf("host %s: path_map has %d paths, record has %d, or hops differ", instance, len(got), len(want))
	}
	return nil
}

// sentPacket is what checkFrames needs to know about one Host.Send call.
type sentPacket struct {
	tuple   packet.FiveTuple
	payload []byte
	// hops is the installed SR path, nil when the flow has none.
	hops []uint32
}

// checkFrames verifies the frames one Host.Send call put on the wire: every
// frame decodes, the first carries an SR header with exactly the installed
// hops (none when no path is installed), and the fragments reassemble to an
// inner frame carrying the flow's tuple and payload. It reports whether the
// packet left on the SR path.
func checkFrames(frames [][]byte, want sentPacket) (bool, error) {
	if len(frames) == 0 {
		return false, errors.New("send: no frames on the wire")
	}
	type frag struct {
		off  int
		data []byte
		more bool
	}
	var frags []frag
	var sr *packet.SRHeader
	seenFirst := false
	for i, f := range frames {
		var eth packet.Ethernet
		rest, err := eth.DecodeFromBytes(f)
		if err != nil {
			return false, fmt.Errorf("send: frame %d: %v", i, err)
		}
		var ip packet.IPv4
		payload, err := ip.DecodeFromBytes(rest)
		if err != nil {
			return false, fmt.Errorf("send: frame %d: %v", i, err)
		}
		if ip.FragOffset == 0 {
			if seenFirst {
				return false, fmt.Errorf("send: frame %d: second first fragment", i)
			}
			seenFirst = true
			var udp packet.UDP
			vxStart, err := udp.DecodeHeader(payload)
			if err != nil || udp.DstPort != packet.VXLANPort {
				return false, fmt.Errorf("send: frame %d: not VXLAN", i)
			}
			var vx packet.VXLAN
			afterVX, err := vx.DecodeFromBytes(vxStart)
			if err != nil {
				return false, fmt.Errorf("send: frame %d: %v", i, err)
			}
			inner := afterVX
			if vx.SRPresent {
				sr = &packet.SRHeader{}
				if inner, err = sr.DecodeFromBytes(afterVX); err != nil {
					return false, fmt.Errorf("send: frame %d: %v", i, err)
				}
			}
			// Rebuild the pre-insertion datagram: UDP+VXLAN headers, then the
			// inner bytes; later fragments' offsets count from it.
			orig := append(append([]byte(nil), payload[:16]...), inner...)
			frags = append(frags, frag{off: 0, data: orig, more: ip.MoreFragments()})
		} else {
			frags = append(frags, frag{off: int(ip.FragOffset) * 8, data: payload, more: ip.MoreFragments()})
		}
	}
	sort.Slice(frags, func(a, b int) bool { return frags[a].off < frags[b].off })
	var dgram []byte
	for i, f := range frags {
		if f.off != len(dgram) {
			return false, fmt.Errorf("send: fragment at offset %d, expected %d", f.off, len(dgram))
		}
		if f.more != (i < len(frags)-1) {
			return false, fmt.Errorf("send: fragment %d has a wrong more-fragments flag", i)
		}
		dgram = append(dgram, f.data...)
	}
	if len(dgram) < 16 {
		return false, errors.New("send: datagram shorter than UDP+VXLAN headers")
	}

	switch {
	case want.hops == nil && sr != nil:
		return true, fmt.Errorf("send: flow without a path carries SR hops %v", sr.Hops)
	case want.hops != nil && sr == nil:
		return false, fmt.Errorf("send: flow with path %v left without an SR header", want.hops)
	case sr != nil && !equalHops(sr.Hops, want.hops):
		return true, fmt.Errorf("send: SR hops %v, installed path %v", sr.Hops, want.hops)
	}

	var eth packet.Ethernet
	rest, err := eth.DecodeFromBytes(dgram[16:])
	if err != nil {
		return sr != nil, fmt.Errorf("send: inner frame: %v", err)
	}
	var ip packet.IPv4
	l4, err := ip.DecodeFromBytes(rest)
	if err != nil {
		return sr != nil, fmt.Errorf("send: inner frame: %v", err)
	}
	var udp packet.UDP
	body, err := udp.DecodeFromBytes(l4)
	if err != nil {
		return sr != nil, fmt.Errorf("send: inner frame: %v", err)
	}
	got := packet.FiveTuple{SrcIP: ip.Src, DstIP: ip.Dst, Proto: ip.Protocol, SrcPort: udp.SrcPort, DstPort: udp.DstPort}
	if got != want.tuple {
		return sr != nil, fmt.Errorf("send: inner tuple %v, sent on %v", got, want.tuple)
	}
	if !bytes.Equal(body, want.payload) {
		return sr != nil, fmt.Errorf("send: reassembled payload of %d bytes differs from the %d sent", len(body), len(want.payload))
	}
	return sr != nil, nil
}

func equalHops(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
