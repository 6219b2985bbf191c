package main

import (
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"megate"
	"megate/internal/cluster"
	"megate/internal/kvstore"
	"megate/internal/telemetry"
)

// dbShards is the number of kvstore servers behind the cluster: one per core
// of the 2-core machine the benchmark was sized on, and the connection
// budget of a single load-generating process.
const dbShards = 2

// database is the sharded TE database every workload publishes into: kvstore
// servers on loopback, each over its own in-process store.
type database struct {
	stores    []*kvstore.Store
	servers   []*kvstore.Server
	serverReg *telemetry.Registry
	clientReg *telemetry.Registry
}

func startDatabase() (*database, error) {
	d := &database{serverReg: telemetry.NewRegistry(), clientReg: telemetry.NewRegistry()}
	for i := 0; i < dbShards; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.close()
			return nil, fmt.Errorf("listen for shard %d: %w", i, err)
		}
		st := megate.NewTEDatabase(8)
		d.stores = append(d.stores, st)
		d.servers = append(d.servers, kvstore.Serve(l, st, kvstore.WithMetrics(d.serverReg)))
	}
	return d, nil
}

func (d *database) close() {
	for _, s := range d.servers {
		s.Close()
	}
}

// client returns a cluster client over short-connection kvstore clients, one
// per shard. With tracing on each node is wrapped so every call records a
// span whose parent is the span cell's current id.
func (d *database) client(tr *tracer, cell *spanCell) (*cluster.Client, error) {
	cc := megate.NewTEDatabaseClusterClient()
	cc.Metrics = d.clientReg
	for i, s := range d.servers {
		kc := &kvstore.Client{Addr: s.Addr(), Metrics: d.clientReg}
		var nc cluster.NodeClient = kc
		if tr != nil {
			nc = &timedNode{c: kc, tr: tr, cell: cell}
		}
		if err := cc.Join(fmt.Sprintf("db%d", i), nc); err != nil {
			return nil, err
		}
	}
	return cc, nil
}

// records reads every record under prefix straight from the shards' stores,
// bypassing the network, for the correctness checks.
func (d *database) records(prefix string) map[string][]byte {
	out := make(map[string][]byte)
	for _, st := range d.stores {
		for _, k := range st.Keys(prefix) {
			if v, ok := st.Get(k); ok {
				out[k] = v
			}
		}
	}
	return out
}

// serverMeanMs is the mean server-side service time of one protocol op.
func (d *database) serverMeanMs(op string) float64 {
	h := d.serverReg.Histogram(kvstore.MetricServerOpSeconds, telemetry.TimeBuckets, "op", op)
	return frac(h.Sum()*1000, float64(h.Count()))
}

// opCounts returns the server-side and client-side op counts by series.
func (d *database) opCounts() map[string]uint64 {
	out := make(map[string]uint64)
	for _, reg := range []*telemetry.Registry{d.serverReg, d.clientReg} {
		for _, s := range reg.Snapshot() {
			if s.Name == kvstore.MetricServerOps || s.Name == kvstore.MetricClientOps {
				out[s.Series()] = uint64(s.Value)
			}
		}
	}
	return out
}

// spanCell holds the id of the span the owning goroutine is inside, so the
// node wrappers can parent their spans without a context argument.
type spanCell struct{ id atomic.Uint64 }

// timedNode wraps one kvstore client and records a span per call. It
// forwards every optional interface the cluster uses on a node —
// cluster.BatchPutter, cluster.DeltaNodeClient and Close — so wrapping a
// node never changes which wire operations the cluster issues.
type timedNode struct {
	c    *kvstore.Client
	tr   *tracer
	cell *spanCell
}

var (
	_ cluster.NodeClient      = (*timedNode)(nil)
	_ cluster.BatchPutter     = (*timedNode)(nil)
	_ cluster.DeltaNodeClient = (*timedNode)(nil)
)

func (n *timedNode) span(op string, start time.Time, keys int, err error) {
	attrs := map[string]float64{"keys": float64(keys)}
	if err != nil {
		attrs["error"] = 1
	}
	n.tr.add("kvstore."+op, n.tr.id(), n.cell.id.Load(), start, time.Now(), attrs)
}

func (n *timedNode) Version() (uint64, error) {
	start := time.Now()
	v, err := n.c.Version()
	n.span("version", start, 0, err)
	return v, err
}

func (n *timedNode) Get(key string) ([]byte, bool, error) {
	start := time.Now()
	v, ok, err := n.c.Get(key)
	n.span("get", start, 1, err)
	return v, ok, err
}

func (n *timedNode) Put(key string, value []byte) error {
	start := time.Now()
	err := n.c.Put(key, value)
	n.span("put", start, 1, err)
	return err
}

func (n *timedNode) Delete(key string) error {
	start := time.Now()
	err := n.c.Delete(key)
	n.span("del", start, 1, err)
	return err
}

func (n *timedNode) Keys(prefix string) ([]string, error) {
	start := time.Now()
	ks, err := n.c.Keys(prefix)
	n.span("keys", start, len(ks), err)
	return ks, err
}

func (n *timedNode) Publish(v uint64) error {
	start := time.Now()
	err := n.c.Publish(v)
	n.span("publish", start, 0, err)
	return err
}

func (n *timedNode) PutBatch(keys []string, values [][]byte) (int, error) {
	start := time.Now()
	acked, err := n.c.PutBatch(keys, values)
	n.span("mput", start, len(keys), err)
	return acked, err
}

func (n *timedNode) Snapshot(prefix string) (uint64, map[string][]byte, error) {
	start := time.Now()
	v, recs, err := n.c.Snapshot(prefix)
	n.span("snap", start, len(recs), err)
	return v, recs, err
}

func (n *timedNode) Delta(since uint64, prefix string) (uint64, []kvstore.DeltaEntry, error) {
	start := time.Now()
	v, entries, err := n.c.Delta(since, prefix)
	n.span("delta", start, len(entries), err)
	return v, entries, err
}

func (n *timedNode) Close() { n.c.Close() }

// writeSpans returns the durations (ms) of node write calls — point PUTs and
// batched PUTs — made under root spans whose name starts with rootPrefix,
// and the keys those calls carried.
func writeSpans(tr *tracer, rootPrefix string) (durs []float64, calls, keys int) {
	roots := make(map[uint64]bool)
	tr.each(func(s *span) {
		if strings.HasPrefix(s.Name, rootPrefix) {
			roots[s.ID] = true
		}
	})
	tr.each(func(s *span) {
		if (s.Name == "kvstore.put" || s.Name == "kvstore.mput") && roots[s.Parent] {
			durs = append(durs, float64(s.End-s.Start)/1e6)
			calls++
			keys += int(s.Attrs["keys"])
		}
	})
	return durs, calls, keys
}
