package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/levelarray/levelarray"
	"github.com/levelarray/levelarray/internal/lease"
	"github.com/levelarray/levelarray/internal/metrics"
	"github.com/levelarray/levelarray/internal/registry"
	"github.com/levelarray/levelarray/internal/server"
	"github.com/levelarray/levelarray/internal/shard"
	"github.com/levelarray/levelarray/internal/wal"
	"github.com/levelarray/levelarray/internal/wire"
)

// The traced run times the layers of the workload's stack at their public
// seams, one rung at a time, at the workloads' 90% fill:
//
//	core      churn on bare core.LevelArrays shaped like one shard: Handle.Get, Free, Collect
//	sharded   churn on the Sharded array: the same seams
//	leased    lease-local: Leased.Acquire, Renew, Release, Collect
//	counts    a real laserve in the workload's mode, untraced, for counts and CPU
//	service   the service stack in process, in the workload's mode
//
// Each rung runs its workload's traffic at the cadence of the untraced run
// and records a span wherever the untraced run reads the clock. The rung of
// the workload's own stack (sharded, leased or service) also runs once
// without spans, just before, so the tracing overhead is measured within
// one run, between neighbouring stretches of time. The service rung records
// spans from this file's decorators: wire.Client.Do, a wire.Backend over
// the backend laserve builds, and a lease.Journal over wal.Store. The array
// handed to the lease manager is not wrapped (the manager type-asserts
// *shard.Sharded), so no span sits inside the lease manager or inside the
// array: a per-call cost includes the layers below it, and the server,
// lease and array share one slice of a served request. Spans stay in
// memory and are written to spans-<workload>.tsv in the work directory as
// each rung ends.

// spanKind names what a span timed.
type spanKind uint8

const (
	kindSession spanKind = iota + 1
	kindCoreGet
	kindCoreFree
	kindCoreCollect
	kindShardGet
	kindShardFree
	kindShardCollect
	kindLeaseAcquire
	kindLeaseRenew
	kindLeaseRelease
	kindLeaseCollect
	kindClientDo
	kindServeWire
	kindWALAppend
)

var kindNames = map[spanKind]string{
	kindSession: "session", kindCoreGet: "core.Handle.Get", kindCoreFree: "core.Handle.Free",
	kindCoreCollect: "core.Collect", kindShardGet: "shard.Handle.Get", kindShardFree: "shard.Handle.Free",
	kindShardCollect: "shard.Collect", kindLeaseAcquire: "Leased.Acquire", kindLeaseRenew: "Leased.Renew",
	kindLeaseRelease: "Leased.Release", kindLeaseCollect: "Leased.Collect", kindClientDo: "wire.Client.Do",
	kindServeWire: "wire.Backend.ServeWire", kindWALAppend: "lease.Journal.Append",
}

// span is one timed call. parent is 0 for a root; session groups the spans
// of one session where the recording side knows it.
type span struct {
	start, end          int64
	id, parent, session uint32
	kind                spanKind
	op                  uint8 // wire opcode or WAL op, where one applies
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps the most recent spans in a ring of a fixed size.
type recorder struct {
	spans []span
	n     atomic.Int64
	ids   atomic.Uint32
}

func newRecorder(size int) *recorder { return &recorder{spans: make([]span, size)} }

func (r *recorder) newID() uint32 { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	i := r.n.Add(1) - 1
	r.spans[i%int64(len(r.spans))] = s
}

// take returns the spans kept since the last reset, in no order; call it
// only when nothing records any more.
func (r *recorder) take() []span { return r.spans[:min(r.n.Load(), int64(len(r.spans)))] }

func (r *recorder) reset() { r.n.Store(0) }

// write appends the spans of one rung to w as tab-separated lines.
func (r *recorder) write(w *bufio.Writer, rung string) {
	for _, s := range r.take() {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%s\t%d\t%d\t%d\n", rung, s.id, s.parent, s.session, kindNames[s.kind], s.op, s.start, s.end)
	}
}

// clockCost returns the median cost of one clock read in nanoseconds. A
// span's duration includes about one read, which the per-call costs
// subtract.
func clockCost() float64 {
	xs := make([]float64, 0, 4001)
	for range 4001 {
		t0 := now()
		xs = append(xs, float64(now()-t0))
	}
	return median(xs)
}

// tracedJournal is a lease.Journal over wal.Store that times every append.
// Appends of lease operations wait in pending until the served request that
// caused them claims them as children; expiries are recorded as roots.
type tracedJournal struct {
	inner *wal.Store
	rec   *recorder

	mu      sync.Mutex
	pending map[jkey]span
	appends *hist
}

type jkey struct {
	op    wal.Op
	name  uint32
	token uint64
}

var _ lease.Journal = (*tracedJournal)(nil)

func (j *tracedJournal) Append(op wal.Op, name uint32, token uint64, deadline int64) error {
	t0 := now()
	err := j.inner.Append(op, name, token, deadline)
	t1 := now()
	s := span{kind: kindWALAppend, op: uint8(op), start: t0, end: t1}
	j.mu.Lock()
	j.appends[bucketOf(uint64(max(t1-t0, 0)))]++
	if op == wal.OpAcquire || op == wal.OpRenew || op == wal.OpRelease {
		j.pending[jkey{op, name, token}] = s
		j.mu.Unlock()
		return err
	}
	j.mu.Unlock()
	s.id = j.rec.newID()
	j.rec.add(s)
	return err
}

func (j *tracedJournal) AppendBatch(recs []wal.Record) error {
	t0 := now()
	err := j.inner.AppendBatch(recs)
	j.rec.add(span{id: j.rec.newID(), kind: kindWALAppend, start: t0, end: now()})
	return err
}

func (j *tracedJournal) BeginCheckpoint() (uint64, error) { return j.inner.BeginCheckpoint() }
func (j *tracedJournal) CompleteCheckpoint(snap *wal.Snapshot) error {
	return j.inner.CompleteCheckpoint(snap)
}
func (j *tracedJournal) Recovered() (*wal.Snapshot, []wal.Record) { return j.inner.Recovered() }

// claim removes and returns the pending append of one lease operation.
func (j *tracedJournal) claim(k jkey) (span, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	s, ok := j.pending[k]
	if ok {
		delete(j.pending, k)
	}
	return s, ok
}

// tracedBackend is a wire.Backend decorator. A request whose frame ID is
// odd belongs to a traced session: its ID is the client span's ID shifted
// left once, which makes the served span that span's child.
type tracedBackend struct {
	inner wire.Backend
	rec   *recorder
	j     *tracedJournal // nil in memory
}

func (b *tracedBackend) ServeWire(req *wire.Request, resp *wire.Response) {
	t0 := now()
	b.inner.ServeWire(req, resp)
	t1 := now()
	var k jkey
	switch {
	case req.Op == wire.OpAcquire && resp.Status == wire.StatusOK && len(resp.Grants) == 1:
		k = jkey{wal.OpAcquire, uint32(resp.Grants[0].Name), resp.Grants[0].Token}
	case req.Op == wire.OpRenew && resp.Status == wire.StatusOK:
		k = jkey{wal.OpRenew, uint32(req.Items[0].Name), req.Items[0].Token}
	case req.Op == wire.OpRelease && resp.Status == wire.StatusOK:
		k = jkey{wal.OpRelease, uint32(req.Items[0].Name), req.Items[0].Token}
	default:
		return
	}
	var js span
	var jok bool
	if b.j != nil {
		js, jok = b.j.claim(k)
	}
	if req.ID&1 == 0 || req.ID >= unsampledBase {
		return
	}
	id := b.rec.newID()
	b.rec.add(span{id: id, parent: uint32(req.ID >> 1), kind: kindServeWire, op: uint8(req.Op), start: t0, end: t1})
	if jok {
		js.id, js.parent = b.rec.newID(), id
		b.rec.add(js)
	}
}

// unsampledBase starts the frame IDs of requests outside traced sessions:
// even, and far above any odd ID derived from a span ID.
const unsampledBase = 1 << 62

var unsampledIDs atomic.Uint64

// tracedClient is one goroutine's view of wire.Client.Do. Every session is
// traced: a session span, and a Do span per request whose ID the frame
// carries to the backend decorator. Requests outside a session (the
// collector's) go out untraced.
type tracedClient struct {
	cl    *wire.Client
	rec   *recorder
	sess  uint32
	start int64
}

func (tc *tracedClient) begin() { tc.sess, tc.start = tc.rec.newID(), now() }

func (tc *tracedClient) end() {
	tc.rec.add(span{id: tc.sess, session: tc.sess, kind: kindSession, start: tc.start, end: now()})
}

func (tc *tracedClient) Do(req *wire.Request, resp *wire.Response) error {
	if tc.sess == 0 {
		req.ID = unsampledBase + unsampledIDs.Add(1)<<1
		return tc.cl.Do(req, resp)
	}
	id := tc.rec.newID()
	req.ID = uint64(id)<<1 | 1
	t0 := now()
	err := tc.cl.Do(req, resp)
	tc.rec.add(span{id: id, parent: tc.sess, session: tc.sess, kind: kindClientDo, op: uint8(req.Op), start: t0, end: now()})
	return err
}

// rung is one step of a traced run: its name, its share of the measured
// seconds, and whether it records spans.
type rung struct {
	name  string
	share float64
	spans bool
}

// rungs lists each workload's rungs. churn's stack is core and shard;
// every traced result of a workload in BENCHMARK.json carries every
// per-layer metric, so churn runs the leased rung too, briefly, and its
// lease.* metrics are that rung's on churn's array.
var rungs = map[string][]rung{
	"churn":         {{"core", 0.2, true}, {"sharded", 0.3, false}, {"sharded", 0.3, true}, {"leased", 0.2, true}},
	"lease-local":   {{"core", 0.15, true}, {"sharded", 0.2, true}, {"leased", 0.3, false}, {"leased", 0.35, true}},
	"lease-wire":    {{"counts", 0.3, false}, {"service", 0.3, false}, {"service", 0.4, true}},
	"lease-durable": {{"counts", 0.3, false}, {"service", 0.3, false}, {"service", 0.4, true}},
}

// ladder runs a workload's rungs and collects their per-layer metrics in m.
type ladder struct {
	cfg     *config
	t       *tally
	rec     *recorder
	spans   *bufio.Writer
	durable bool
	m       metricSet
	clock   float64
}

// runTraced runs the workload's rungs and reports the per-layer metrics.
func runTraced(cfg *config, t *tally) (metricSet, error) {
	f, err := os.Create(filepath.Join(cfg.work, "spans-"+cfg.workload+".tsv"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "rung\tid\tparent\tsession\tname\top\tstart_ns\tend_ns")
	l := &ladder{
		cfg: cfg, t: t, spans: w, rec: newRecorder(1 << 18), m: metricSet{},
		durable: cfg.workload == "lease-durable", clock: clockCost(),
	}
	l.m.set("trace.clock_ns", l.clock, "ns")
	run := map[string]func(time.Duration, *recorder) error{
		"core": l.coreRung, "sharded": l.shardedRung, "leased": l.leasedRung,
		"counts": l.countsRung, "service": l.serviceRung,
	}
	for _, r := range rungs[cfg.workload] {
		var rec *recorder
		if r.spans {
			rec = l.rec
		}
		if err := run[r.name](secondsDur(cfg.seconds*r.share), rec); err != nil {
			return nil, err
		}
		l.rec.write(w, r.name)
		l.rec.reset()
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return l.m, nil
}

// endToEnd reports a rung's end-to-end view, as traced.* when it recorded
// spans and as untraced.* when it did not, if the rung runs the workload's
// own stack: the two side by side show the tracing overhead.
func (l *ladder) endToEnd(workload string, rec *recorder, ph *phase, acq, col *latSet) {
	if workload != l.cfg.workload {
		return
	}
	prefix := "traced."
	if rec == nil {
		prefix = "untraced."
	}
	l.m.set(prefix+"sessions_per_s", median(ph.rates), "1/s")
	l.m.set(prefix+"acquire_p50_us", acq.windowed(0.5), "us")
	l.m.set(prefix+"collect_p99_us", col.windowed(0.99), "us")
}

// perCall returns the mean cost of one call in nanoseconds from the
// durations of its spans, which the workers also add to their latency
// histograms: the median over the rung's windows of each window's mean,
// less the clock read each duration includes. The histograms cover the
// whole measured interval; the span ring keeps only its end.
func (l *ladder) perCall(d *latSet) float64 { return d.windowedMean() - l.clock }

// churnRung runs churn, with spans when rec is set, goroutine g on sts[g]
// when there is one state per goroutine and on the shared sts[0] otherwise.
func (l *ladder) churnRung(dur time.Duration, rec *recorder, sts []*churnState, kinds [3]spanKind) ([]*churnWorker, *phase) {
	ws := make([]*churnWorker, localProcs)
	for i := range ws {
		ws[i] = &churnWorker{rec: rec, getKind: kinds[0], freeKind: kinds[1], collectKind: kinds[2]}
	}
	ph := runPhase(localProcs, warmFor(l.cfg.seconds), dur, func(g int, p *phase) {
		if len(sts) == 1 {
			ws[g].run(sts[0], g, g, l.cfg.seed, p, l.t)
		} else {
			ws[g].run(sts[g], 0, g, l.cfg.seed, p, l.t)
		}
	})
	return ws, ph
}

// coreRung gives each goroutine its own bare LevelArray shaped like one
// shard of the Sharded array, as each goroutine's handles there share one
// home shard.
func (l *ladder) coreRung(dur time.Duration, rec *recorder) error {
	perShard := capacity / levelarray.DefaultShards()
	var sts []*churnState
	for g := range localProcs {
		st, err := setupChurn(func(n int, seed uint64) (*levelarray.LevelArray, error) {
			return levelarray.New(levelarray.Config{Capacity: n, Seed: seed, Space: levelarray.SpaceBitmap, Probe: levelarray.ProbeWord})
		}, perShard, 1, l.cfg.seed+uint64(g), l.t)
		if err != nil {
			return err
		}
		sts = append(sts, st)
	}
	ws, _ := l.churnRung(dur, rec, sts, [3]spanKind{kindCoreGet, kindCoreFree, kindCoreCollect})
	get, free, col := gather(l.t, ws...)
	l.m.set("core.get_ns", l.perCall(get), "ns")
	l.m.set("core.free_ns", l.perCall(free), "ns")
	l.m.set("core.collect_ns_per_slot", l.perCall(col)/float64(sts[0].arr.Size()), "ns")
	return nil
}

func (l *ladder) shardedRung(dur time.Duration, rec *recorder) error {
	st, err := setupChurn(newSharded, capacity, localProcs, l.cfg.seed, l.t)
	if err != nil {
		return err
	}
	ws, ph := l.churnRung(dur, rec, []*churnState{st}, [3]spanKind{kindShardGet, kindShardFree, kindShardCollect})
	get, free, col := gather(l.t, ws...)
	l.endToEnd("churn", rec, ph, get, col)
	if rec == nil {
		return nil
	}
	l.m.set("shard.get_ns", l.perCall(get), "ns")
	l.m.set("shard.free_ns", l.perCall(free), "ns")
	l.m.set("shard.collect_us", l.perCall(col)/1e3, "us")
	var ps levelarray.ProbeStats
	for _, hs := range st.hs {
		for _, h := range hs {
			ps.Merge(h.Stats())
		}
	}
	l.m.set("tas.probes_per_get", ps.Mean(), "count")
	l.m.set("tas.probes_max", float64(ps.MaxProbes), "count")
	l.m.set("core.backup_ratio", ratio(ps.BackupOps, ps.Ops), "ratio")
	l.m.set("shard.steal_ratio", ratio(ps.Steals, ps.Ops), "ratio")
	return nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (l *ladder) leasedRung(dur time.Duration, rec *recorder) error {
	st, err := setupLeased(l.cfg.seed, l.t)
	if err != nil {
		return err
	}
	defer st.mgr.Close()
	before := st.mgr.Stats()
	ws := make([]*leaseWorker, localProcs)
	for i := range ws {
		ws[i] = &leaseWorker{rec: rec}
	}
	ph := runPhase(localProcs, warmFor(l.cfg.seconds), dur, func(g int, p *phase) {
		ws[g].run(st, g, l.cfg.seed, p, l.t)
	})
	acq, rel, col := gather(l.t, ws...)
	l.endToEnd("lease-local", rec, ph, acq, col)
	if rec == nil {
		return nil
	}
	l.m.set("lease.acquire_ns", l.perCall(acq), "ns")
	l.m.set("lease.renew_ns", l.perCall(mergeLat(ws[0].ren, ws[1].ren)), "ns")
	l.m.set("lease.release_ns", l.perCall(rel), "ns")
	l.m.set("lease.collect_us", l.perCall(col)/1e3, "us")
	l.leaseStats(before, st.mgr.Stats(), ph.elapsed.Seconds()+warmFor(l.cfg.seconds).Seconds())
	return nil
}

// leaseStats reports the lease manager's counts between two snapshots
// taken secs apart.
func (l *ladder) leaseStats(before, after lease.Stats, secs float64) {
	l.m.set("lease.expired_per_s", float64(after.Expirations-before.Expirations)/secs, "1/s")
	races := (after.RenewRaces - before.RenewRaces) + (after.ReleaseRaces - before.ReleaseRaces)
	l.m.set("lease.race_ratio", ratio(races, races+(after.Renews-before.Renews)+(after.Releases-before.Releases)), "ratio")
	failed := after.FailedAcquires - before.FailedAcquires
	l.m.set("lease.failed_acquire_ratio", ratio(failed, failed+(after.Acquires-before.Acquires)), "ratio")
}

// inProcess is the service stack built in process from laserve's
// constructors, with or without the decorators.
type inProcess struct {
	mgr     *lease.Manager
	store   *wal.Store
	journal *tracedJournal
	srv     *wire.Server
	served  chan struct{}
	dir     string
}

func (l *ladder) buildInProcess(rec *recorder) (*inProcess, *svcState, error) {
	arr, err := registry.New(registry.Sharded, registry.Options{
		Capacity: capacity, SizeFactor: 2, Seed: l.cfg.seed,
		Space: levelarray.SpaceBitmap, Probe: levelarray.ProbeWord, Steal: shard.StealOccupancy,
	})
	if err != nil {
		return nil, nil, err
	}
	ip := &inProcess{served: make(chan struct{})}
	leaseCfg := lease.Config{TickInterval: tickInterval}
	if l.durable {
		ip.dir = filepath.Join(l.cfg.work, fmt.Sprintf("data-%d-traced", os.Getpid()))
		if err := os.RemoveAll(ip.dir); err != nil {
			return nil, nil, err
		}
		if ip.store, err = wal.Open(filepath.Join(ip.dir, "p0"), wal.SyncAlways, 25*time.Millisecond); err != nil {
			ip.close()
			return nil, nil, err
		}
		leaseCfg.Journal = ip.store
		if rec != nil {
			ip.journal = &tracedJournal{inner: ip.store, rec: rec, pending: map[jkey]span{}, appends: new(hist)}
			leaseCfg.Journal = ip.journal
		}
	}
	if ip.mgr, err = lease.NewManager(arr, leaseCfg); err != nil {
		ip.close()
		return nil, nil, err
	}
	if l.durable {
		if _, err := ip.mgr.Restore(); err != nil {
			ip.close()
			return nil, nil, err
		}
	}
	ip.mgr.Start()
	reg := metrics.NewRegistry()
	metrics.RegisterRuntime(reg)
	backend := server.NewWireBackend(ip.mgr, server.Config{DefaultTTL: 10 * time.Second, Metrics: server.NewMetrics(reg)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ip.close()
		return nil, nil, err
	}
	var wb wire.Backend = backend
	if rec != nil {
		wb = &tracedBackend{inner: backend, rec: rec, j: ip.journal}
	}
	ip.srv = wire.NewServer(wb)
	go func() {
		defer close(ip.served)
		_ = ip.srv.Serve(ln)
	}()
	st, err := prefillService(nil, wire.NewClient(ln.Addr().String(), &wire.ClientConfig{Conns: svcConns}), l.cfg.seed, l.t)
	if err != nil {
		ip.close()
		return nil, nil, err
	}
	return ip, st, nil
}

// close stops whatever part of the stack was built.
func (ip *inProcess) close() {
	if ip.srv != nil {
		_ = ip.srv.Close()
		<-ip.served
	}
	if ip.mgr != nil {
		ip.mgr.Close()
	}
	if ip.store != nil {
		_ = ip.store.Close()
	}
	if ip.dir != "" {
		_ = os.RemoveAll(ip.dir)
	}
}

// serviceRung runs the service stack in process, in the workload's mode,
// with every session traced when rec is set.
func (l *ladder) serviceRung(dur time.Duration, rec *recorder) error {
	ip, st, err := l.buildInProcess(rec)
	if err != nil {
		return err
	}
	if rec == nil {
		ph, acq, _, col := driveService(st, func(int) doer { return st.cl }, l.cfg.seed, warmFor(l.cfg.seconds), dur, l.t)
		st.shutdown(l.t)
		ip.close()
		l.endToEnd(l.cfg.workload, nil, ph, acq, col)
		return nil
	}
	var walBefore wal.Counters
	if l.durable {
		walBefore = ip.store.Counters()
	}
	leaseBefore := ip.mgr.Stats()
	ph, acq, _, col := driveService(st, func(int) doer {
		return &tracedClient{cl: st.cl, rec: rec}
	}, l.cfg.seed, warmFor(l.cfg.seconds), dur, l.t)
	leaseAfter := ip.mgr.Stats()
	st.shutdown(l.t)
	ip.close()
	l.leaseStats(leaseBefore, leaseAfter, ph.elapsed.Seconds()+warmFor(l.cfg.seconds).Seconds())
	if l.durable {
		var sessions int64
		for i := range ph.count {
			sessions += ph.count[i].n.Load()
		}
		wc := ip.store.Counters()
		l.m.set("wal.append_us_p50", quantile(ip.journal.appends, 0.5)/1e3, "us")
		l.m.set("wal.append_us_p99", quantile(ip.journal.appends, 0.99)/1e3, "us")
		l.m.set("wal.records_per_sync", ratio(wc.Appends-walBefore.Appends, wc.Syncs-walBefore.Syncs), "count")
		l.m.set("wal.bytes_per_session", float64(wc.Bytes-walBefore.Bytes)/float64(max(sessions, 1)), "B")
	}
	l.endToEnd(l.cfg.workload, rec, ph, acq, col)
	l.attribute(rec.take())
	return nil
}

// attribute splits the traced sessions' time across what the spans
// measure, all within the same calls:
//
//	wire    Do time outside ServeWire (client queueing, encode, syscalls, transit)
//	wal     Journal.Append time inside ServeWire
//	serve   ServeWire time outside the WAL appends: server, lease, shard,
//	        core and tas together, since no span may sit inside the lease
//	        manager or its array
//
// and whatever the session spent outside its Do calls is unattributed.
// Only sessions that began after the oldest span the ring kept are
// counted, so that none has lost a child.
func (l *ladder) attribute(spans []span) {
	children := map[uint32][]int{}
	oldest := int64(math.MaxInt64)
	for i, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
		oldest = min(oldest, s.end)
	}
	var nsess, ndo, sess, wireT, serveT, walT, outside float64
	rtt := new(hist)
	for _, s := range spans {
		if s.kind != kindSession || s.start <= oldest {
			continue
		}
		nsess++
		sess += float64(s.dur())
		var doT float64
		for _, di := range children[s.id] {
			d := spans[di]
			ndo++
			doT += float64(d.dur())
			rtt[bucketOf(uint64(max(d.dur(), 0)))]++
			for _, vi := range children[d.id] {
				v := spans[vi]
				var w float64
				for _, ji := range children[v.id] {
					w += float64(spans[ji].dur())
				}
				wireT -= float64(v.dur())
				serveT += float64(v.dur()) - w
				walT += w
			}
		}
		wireT += doT
		outside += float64(s.dur()) - doT
	}
	perSess := func(ns float64) float64 { return ns / max(nsess, 1) / 1e3 }
	l.m.set("attr.session_us", perSess(sess), "us")
	l.m.set("attr.wire_us", perSess(wireT), "us")
	l.m.set("attr.serve_us", perSess(serveT), "us")
	l.m.set("attr.wal_us", perSess(walT), "us")
	l.m.set("trace.unattributed_us", perSess(outside), "us")
	l.m.set("server.serve_incl_us", serveT/max(ndo, 1)/1e3, "us")
	l.m.set("wire.transit_us", wireT/max(ndo, 1)/1e3, "us")
	l.m.set("wire.rtt_us_p50", quantile(rtt, 0.5)/1e3, "us")
	l.m.set("wire.rtt_us_p99", quantile(rtt, 0.99)/1e3, "us")
}

// countsRung runs a real laserve in the workload's mode, untraced, and
// reads counts from public accessors: the wire client's Counters,
// laserve's la_wire_server_* families, and /proc CPU time of both
// processes.
func (l *ladder) countsRung(dur time.Duration, _ *recorder) error {
	st, err := bootService(l.cfg, l.durable, "counts", l.t)
	if err != nil {
		return err
	}
	scrape := func() ([]metrics.Sample, error) {
		var last error
		for range 200 {
			resp, err := http.Get("http://" + st.lp.httpAddr + "/metrics")
			if err == nil {
				samples, perr := metrics.ParseText(resp.Body)
				resp.Body.Close()
				return samples, perr
			}
			last = err
			time.Sleep(25 * time.Millisecond)
		}
		return nil, last
	}
	s0, err := scrape()
	if err != nil {
		st.shutdown(l.t)
		return err
	}
	c0 := st.cl.Counters()
	srv0, err1 := cpuSeconds(st.lp.pid)
	gen0, err2 := cpuSeconds("self")
	if err1 != nil || err2 != nil {
		st.shutdown(l.t)
		return fmt.Errorf("reading CPU time: %v %v", err1, err2)
	}
	ph, _, _, _ := driveService(st, func(int) doer { return st.cl }, l.cfg.seed, warmFor(l.cfg.seconds), dur, l.t)
	srv1, err1 := cpuSeconds(st.lp.pid)
	gen1, err2 := cpuSeconds("self")
	c1 := st.cl.Counters()
	s1, err3 := scrape()
	st.shutdown(l.t)
	if err1 != nil || err2 != nil || err3 != nil {
		return fmt.Errorf("reading counts: %v %v %v", err1, err2, err3)
	}
	var sessions int64
	for i := range ph.count {
		sessions += ph.count[i].n.Load()
	}
	perSession := 1e6 / float64(max(sessions, 1))
	l.m.set("proc.server_cpu_us_per_session", (srv1-srv0)*perSession, "us")
	l.m.set("proc.loadgen_cpu_us_per_session", (gen1-gen0)*perSession, "us")
	l.m.set("wire.client_frames_per_flush", ratio(c1.FramesSent-c0.FramesSent, c1.Flushes-c0.Flushes), "count")
	l.m.set("wire.redials", float64(c1.Dials)-svcConns, "count")
	delta := func(name string) uint64 {
		a, _ := metrics.Find(s0, name)
		b, _ := metrics.Find(s1, name)
		return uint64(b - a)
	}
	l.m.set("wire.server_frames_per_flush", ratio(delta("la_wire_server_frames_written_total"), delta("la_wire_server_flushes_total")), "count")
	return nil
}
