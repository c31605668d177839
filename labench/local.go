package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/levelarray/levelarray"
)

// The array every workload runs: laserve's defaults.
const (
	capacity    = 4096 // laserve -capacity
	prefill     = capacity * 9 / 10
	localProcs  = 2   // goroutines of the in-process workloads
	collectStep = 256 // steps between one goroutine's Collects
	setupReps   = 101 // set-ups per in-process run; setup_s is their median
	timeEvery   = 16  // churn times one step in this many, traced or not
)

// newArray builds the Sharded LevelArray laserve serves by default: bitmap
// substrate, word probes, capacity 4096, namespace 2n, one shard per P.
func newArray(seed uint64) (*levelarray.Sharded, error) { return newSharded(capacity, seed) }

func newSharded(n int, seed uint64) (*levelarray.Sharded, error) {
	return levelarray.NewSharded(levelarray.ShardedConfig{
		Shards:   levelarray.DefaultShards(),
		Capacity: n,
		Seed:     seed,
		Array:    levelarray.Config{Space: levelarray.SpaceBitmap, Probe: levelarray.ProbeWord},
	})
}

// warmFor is the untimed warm-up before a measured interval.
func warmFor(seconds float64) time.Duration {
	return time.Duration(min(1, 0.1*seconds) * float64(time.Second))
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// churnState is one built and prefilled churn array.
type churnState struct {
	arr   levelarray.Array
	own   *ownership
	hs    [][]levelarray.Handle // per goroutine
	names [][]int
}

// ownership checks the array contract: no name is held by two live
// handles. A handle marks its name free before Free and claims the name it
// gets with a compare-and-swap, which fails only if the name is held.
type ownership struct {
	held []atomic.Int32
}

// setupChurn builds an array of capacity n and registers 90% of n handles,
// dealt round-robin across procs goroutines. On the Sharded array, handle
// homes are dealt round-robin too, so each goroutine's handles share one
// home shard.
func setupChurn[A levelarray.Array](build func(n int, seed uint64) (A, error), n, procs int, seed uint64, t *tally) (*churnState, error) {
	arr, err := build(n, seed)
	if err != nil {
		return nil, err
	}
	st := &churnState{arr: arr, own: &ownership{held: make([]atomic.Int32, arr.Size())},
		hs: make([][]levelarray.Handle, procs), names: make([][]int, procs)}
	for i := range n * 9 / 10 {
		h := arr.Handle()
		name, err := h.Get()
		if err != nil {
			return nil, fmt.Errorf("prefill Get %d: %w", i, err)
		}
		st.own.claim(name, t)
		g := i % procs
		st.hs[g] = append(st.hs[g], h)
		st.names[g] = append(st.names[g], name)
	}
	return st, nil
}

func (o *ownership) claim(name int, t *tally) {
	if !o.held[name].CompareAndSwap(0, 1) {
		t.violate("name %d returned by Get while another live handle holds it", name)
	}
}

func (o *ownership) free(name int) { o.held[name].Store(0) }

// collectCheck verifies one Collect: every name is inside the namespace, and
// every name the collecting goroutine held across the whole Collect is in
// it. seen is scratch of one bit per name.
func collectCheck(got []int, mine []int, seen []uint64, size int, t *tally) {
	clear(seen)
	for _, n := range got {
		if n < 0 || n >= size {
			t.violate("Collect returned name %d outside [0, %d)", n, size)
			return
		}
		seen[n>>6] |= 1 << (n & 63)
	}
	for _, n := range mine {
		if seen[n>>6]&(1<<(n&63)) == 0 {
			t.violate("Collect missed name %d, held across the whole Collect", n)
			return
		}
	}
}

// setupTimes collects set-up durations. A run times half its set-ups
// before the measured interval and half after it, so one slow stretch of a
// shared machine cannot set the median.
type setupTimes []float64

// timeSetups runs build reps times, recording each duration in su. Each
// build is released before the next starts, and each set-up starts after a
// collection, so none pays for the one before; the last build is returned
// with its release.
func timeSetups[T any](su *setupTimes, reps int, build func() (T, func(), error)) (T, func(), error) {
	var last T
	release := func() {}
	for range reps {
		release()
		runtime.GC()
		start := time.Now()
		v, rel, err := build()
		if err != nil {
			return last, nil, err
		}
		*su = append(*su, time.Since(start).Seconds())
		last, release = v, rel
	}
	return last, release, nil
}

// opStats is what every worker keeps to itself while it runs: latencies
// of its acquires (Gets), releases (Frees) and Collects, and its operation
// counts. gather hands them over once the workers have stopped.
type opStats struct {
	acq, rel, col *lat
	ops, fails    int64
}

func (s *opStats) start(nwin int) { s.acq, s.rel, s.col = newLat(nwin), newLat(nwin), newLat(nwin) }

func (s *opStats) stats() *opStats { return s }

// gather adds the workers' counts to t and merges their latencies.
func gather[W interface{ stats() *opStats }](t *tally, ws ...W) (acq, rel, col *latSet) {
	var a, r, c []*lat
	for _, w := range ws {
		s := w.stats()
		t.attempted.Add(s.ops)
		t.failed.Add(s.fails)
		a, r, c = append(a, s.acq), append(r, s.rel), append(c, s.col)
	}
	return mergeLat(a...), mergeLat(r...), mergeLat(c...)
}

// churnWorker is one churn goroutine: each step Frees one of its handles
// at random and Gets it again, timing one step in every timeEvery, and
// every collectStep steps it Collects and checks the result. With a
// recorder, every timed step and every Collect is also recorded as spans.
type churnWorker struct {
	opStats
	rec         *recorder
	getKind     spanKind // span kinds of the array under test
	freeKind    spanKind
	collectKind spanKind
}

// run works the handles st dealt to slot, as phase goroutine g.
func (cw *churnWorker) run(st *churnState, slot, g int, seed uint64, p *phase, t *tally) {
	cw.start(p.nwin)
	r := newRNG(seed, g)
	arr := st.arr
	hs, names := st.hs[slot], st.names[slot]
	seen := make([]uint64, (arr.Size()+63)/64)
	buf := make([]int, 0, arr.Size())
	var steps int64
	for !p.done() {
		i := r.intn(len(hs))
		h := hs[i]
		st.own.free(names[i])
		var err error
		if steps%timeEvery == 0 {
			w := p.window()
			t0 := now()
			err = h.Free()
			t1 := now()
			if err == nil {
				names[i], err = h.Get()
			}
			t2 := now()
			cw.rel.add(w, t1-t0)
			cw.acq.add(w, t2-t1)
			if cw.rec != nil {
				sess := cw.rec.newID()
				cw.rec.add(span{id: cw.rec.newID(), session: sess, kind: cw.freeKind, start: t0, end: t1})
				cw.rec.add(span{id: cw.rec.newID(), session: sess, kind: cw.getKind, start: t1, end: t2})
			}
		} else if err = h.Free(); err == nil {
			names[i], err = h.Get()
		}
		cw.ops += 2
		for errors.Is(err, levelarray.ErrFull) && !p.done() {
			cw.fails++
			cw.ops++
			names[i], err = h.Get()
		}
		if err != nil {
			if !errors.Is(err, levelarray.ErrFull) {
				t.violate("churn step: %v", err)
			}
			return
		}
		st.own.claim(names[i], t)
		steps++
		p.count[g].n.Store(steps)
		if steps%collectStep == 0 {
			w := p.window()
			t0 := now()
			buf = arr.Collect(buf[:0])
			t1 := now()
			cw.col.add(w, t1-t0)
			if cw.rec != nil {
				cw.rec.add(span{id: cw.rec.newID(), kind: cw.collectKind, start: t0, end: t1})
			}
			cw.ops++
			collectCheck(buf, names, seen, arr.Size(), t)
		}
	}
}

// runChurn is the paper's long-lived regime through the root API: two
// goroutines keep the array 90% full; each step Frees one of the
// goroutine's own handles at random and Gets it again, and every 256 steps
// the goroutine Collects.
func runChurn(cfg *config, t *tally) (metricSet, error) {
	build := func() (*churnState, func(), error) {
		st, err := setupChurn(newSharded, capacity, localProcs, cfg.seed, t)
		return st, func() {}, err
	}
	var su setupTimes
	st, _, err := timeSetups(&su, setupReps-setupReps/2, build)
	if err != nil {
		return nil, err
	}
	ws := make([]*churnWorker, localProcs)
	for g := range ws {
		ws[g] = &churnWorker{}
	}
	ph := runPhase(localProcs, warmFor(cfg.seconds), secondsDur(cfg.seconds), func(g int, p *phase) {
		ws[g].run(st, g, g, cfg.seed, p, t)
	})
	if _, _, err := timeSetups(&su, setupReps/2, build); err != nil {
		return nil, err
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	acq, rel, col := gather(t, ws...)
	return endToEnd(ph, su, rss, acq, rel, col), nil
}

// endToEnd assembles the end-to-end metrics every workload reports.
func endToEnd(ph *phase, su setupTimes, rssMB float64, acq, rel, col *latSet) metricSet {
	m := metricSet{}
	m.set("sessions_per_s", median(ph.rates), "1/s")
	m.set("acquire_p50_us", acq.windowed(0.5), "us")
	m.set("acquire_p99_us", acq.windowed(0.99), "us")
	m.set("release_p99_us", rel.windowed(0.99), "us")
	m.set("collect_p99_us", col.windowed(0.99), "us")
	m.set("setup_s", median(su), "s")
	m.set("peak_rss_mb", rssMB, "MiB")
	return m
}

// The lease mix of every lease workload. The TTL and the renew share are
// laload's defaults (-ttl 2s, -renew 20: one lease in five is renewed once
// while held). laload's other defaults are not reproduced: its 500 µs hold
// is replaced by the 90% population, which each session leaves and joins,
// and its 10% crash share would pin more names than the 10% headroom at
// these rates, since each abandoned lease holds its name for a whole TTL.
// The abandon share and its short TTL are placeholders, not an observed
// mix: enough abandoned leases for the expirer to reclaim some every tick.
const (
	leaseTTL     = 2 * time.Second        // laload -ttl
	renewOneIn   = 5                      // laload -renew 20
	abandonOneIn = 1024                   // sessions that abandon their lease
	abandonTTL   = 20 * time.Millisecond  // TTL of an abandoned lease
	tickInterval = 100 * time.Millisecond // laserve -tick
)

// leaseState is one built and prefilled lease-local manager.
type leaseState struct {
	arr    *levelarray.Sharded
	mgr    *levelarray.Leased
	led    *ledger
	names  [][]int
	tokens [][]uint64
}

// setupLeased builds the array and its lease manager, starts the expirer
// and acquires prefill leases, dealt round-robin across the goroutines.
func setupLeased(seed uint64, t *tally) (*leaseState, error) {
	arr, err := newArray(seed)
	if err != nil {
		return nil, err
	}
	mgr, err := levelarray.NewLeased(arr, levelarray.LeaseConfig{TickInterval: tickInterval})
	if err != nil {
		return nil, err
	}
	mgr.Start()
	st := &leaseState{arr: arr, mgr: mgr, led: newLedger(arr.Size(), t),
		names: make([][]int, localProcs), tokens: make([][]uint64, localProcs)}
	for i := range prefill {
		l, err := mgr.Acquire(leaseTTL)
		if err != nil {
			mgr.Close()
			return nil, fmt.Errorf("prefill Acquire %d: %w", i, err)
		}
		st.led.grant(l.Name, l.Token, time.Now().UnixNano())
		g := i % localProcs
		st.names[g] = append(st.names[g], l.Name)
		st.tokens[g] = append(st.tokens[g], l.Token)
	}
	return st, nil
}

// leaseWorker is one lease-local goroutine's loop. Each step is one
// session. One step in abandonOneIn acquires a lease for abandonTTL and
// abandons it to the expirer. Every other step releases one of the
// goroutine's held leases at random and acquires a new one in its place,
// and one in renewOneIn of them first renews another held lease. Every
// collectStep steps the goroutine Collects and checks that its own leases
// are all in the result. With a recorder, every call is also recorded as a
// span, and renew latencies are kept too.
type leaseWorker struct {
	opStats
	ren *lat
	rec *recorder
}

func (lw *leaseWorker) run(st *leaseState, g int, seed uint64, p *phase, t *tally) {
	lw.start(p.nwin)
	if lw.rec != nil {
		lw.ren = newLat(p.nwin)
	}
	r := newRNG(seed, g)
	names, tokens := st.names[g], st.tokens[g]
	seen := make([]uint64, (st.arr.Size()+63)/64)
	buf := make([]int, 0, st.arr.Size())
	var sess uint32
	mark := func(kind spanKind, t0, t1 int64) {
		if lw.rec != nil {
			lw.rec.add(span{id: lw.rec.newID(), session: sess, kind: kind, start: t0, end: t1})
		}
	}
	var steps int64
	for !p.done() {
		w := p.window()
		if lw.rec != nil {
			sess = lw.rec.newID()
		}
		abandon := r.chance(abandonOneIn)
		ttl, i := abandonTTL, -1
		if !abandon {
			ttl, i = leaseTTL, r.intn(len(names))
			if r.chance(renewOneIn) {
				j := r.intn(len(names))
				t0 := now()
				_, err := st.mgr.Renew(names[j], tokens[j], leaseTTL)
				t1 := now()
				if lw.rec != nil {
					lw.ren.add(w, t1-t0)
				}
				mark(kindLeaseRenew, t0, t1)
				lw.ops++
				if err != nil {
					t.violate("renew of held lease %d: %v", names[j], err)
					return
				}
			}
			st.led.release(names[i])
			t0 := now()
			err := st.mgr.Release(names[i], tokens[i])
			t1 := now()
			lw.rel.add(w, t1-t0)
			mark(kindLeaseRelease, t0, t1)
			lw.ops++
			if err != nil {
				t.violate("release of held lease %d: %v", names[i], err)
				return
			}
		}
		t0 := time.Now()
		l, err := st.mgr.Acquire(ttl)
		t1 := time.Now()
		lw.acq.add(w, int64(t1.Sub(t0)))
		mark(kindLeaseAcquire, int64(t0.Sub(clockBase)), int64(t1.Sub(clockBase)))
		lw.ops++
		for errors.Is(err, levelarray.ErrFull) && !p.done() {
			lw.fails++
			lw.ops++
			l, err = st.mgr.Acquire(ttl)
			t1 = time.Now()
		}
		if err != nil {
			if !errors.Is(err, levelarray.ErrFull) {
				t.violate("acquire: %v", err)
			}
			return
		}
		st.led.grant(l.Name, l.Token, t1.UnixNano())
		if abandon {
			st.led.abandon(l.Name, l.Deadline.UnixNano())
		} else {
			names[i], tokens[i] = l.Name, l.Token
		}
		steps++
		p.count[g].n.Store(steps)
		if steps%collectStep == 0 {
			t0 := now()
			buf = st.mgr.Collect(buf[:0])
			t1 := now()
			lw.col.add(p.window(), t1-t0)
			mark(kindLeaseCollect, t0, t1)
			lw.ops++
			collectCheck(buf, names, seen, st.arr.Size(), t)
		}
	}
}

// runLeaseLocal runs the churn array behind a lease manager with a finite
// TTL, in process: the lease layer's own cost, with no transport.
func runLeaseLocal(cfg *config, t *tally) (metricSet, error) {
	build := func() (*leaseState, func(), error) {
		st, err := setupLeased(cfg.seed, t)
		if err != nil {
			return nil, nil, err
		}
		return st, st.mgr.Close, nil
	}
	var su setupTimes
	st, release, err := timeSetups(&su, setupReps-setupReps/2, build)
	if err != nil {
		return nil, err
	}
	ws := make([]*leaseWorker, localProcs)
	for g := range ws {
		ws[g] = &leaseWorker{}
	}
	ph := runPhase(localProcs, warmFor(cfg.seconds), secondsDur(cfg.seconds), func(g int, p *phase) {
		ws[g].run(st, g, cfg.seed, p, t)
	})
	release()
	_, release, err = timeSetups(&su, setupReps/2, build)
	if err != nil {
		return nil, err
	}
	release()
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	acq, rel, col := gather(t, ws...)
	return endToEnd(ph, su, rss, acq, rel, col), nil
}
