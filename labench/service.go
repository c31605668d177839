package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"github.com/levelarray/levelarray/internal/wire"
)

// Parameters of the service workloads. Their sessions follow the lease mix
// of local.go.
const (
	svcSessions     = 32 // sessions in flight, closed loop
	svcConns        = 2  // pooled wire connections (= CPUs of the generator)
	svcSetupReps    = 9  // laserve boots per run; setup_s is their median
	svcPrefillTTLms = 600_000
	svcCollectEvery = 4 * time.Millisecond
)

// laserveProc is one running laserve built from the tree under test.
type laserveProc struct {
	cmd      *exec.Cmd
	pid      string
	httpAddr string
	wireAddr string
	dataDir  string
	exited   chan struct{}
}

// freeAddrs returns n loopback addresses with ports free at the moment of
// the call.
func freeAddrs(n int) ([]string, error) {
	var out []string
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for range n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		out = append(out, ln.Addr().String())
	}
	return out, nil
}

// startLaserve boots laserve with its default array and lease settings, a
// wire listener and, when durable, a fresh data directory under the
// default -wal-sync always, and returns once the wire port accepts.
func startLaserve(cfg *config, durable bool, tag string) (*laserveProc, error) {
	addrs, err := freeAddrs(2)
	if err != nil {
		return nil, err
	}
	lp := &laserveProc{httpAddr: addrs[0], wireAddr: addrs[1], exited: make(chan struct{})}
	args := []string{"-addr", lp.httpAddr, "-wire-addr", lp.wireAddr, "-seed", strconv.FormatUint(cfg.seed, 10)}
	if durable {
		lp.dataDir = filepath.Join(cfg.work, fmt.Sprintf("data-%d-%s", os.Getpid(), tag))
		if err := os.RemoveAll(lp.dataDir); err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", lp.dataDir)
	}
	logf, err := os.OpenFile(filepath.Join(cfg.work, "laserve.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	lp.cmd = exec.Command(cfg.laserve, args...)
	lp.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(cfg.procs))
	lp.cmd.Stdout, lp.cmd.Stderr = logf, logf
	if err := lp.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting laserve: %w", err)
	}
	lp.pid = strconv.Itoa(lp.cmd.Process.Pid)
	go func() {
		_ = lp.cmd.Wait()
		close(lp.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		c, err := net.Dial("tcp", lp.wireAddr)
		if err == nil {
			c.Close()
			return lp, nil
		}
		select {
		case <-lp.exited:
			return nil, fmt.Errorf("laserve exited during start-up (see %s)", logf.Name())
		case <-time.After(500 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			lp.stop()
			return nil, fmt.Errorf("laserve did not listen on %s within 20s", lp.wireAddr)
		}
	}
}

// stop shuts laserve down with SIGTERM, as an operator would, and waits for
// it; after 10s it is killed. The data directory is removed.
func (lp *laserveProc) stop() {
	_ = lp.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-lp.exited:
	case <-time.After(10 * time.Second):
		_ = lp.cmd.Process.Kill()
		<-lp.exited
	}
	if lp.dataDir != "" {
		_ = os.RemoveAll(lp.dataDir)
	}
}

// svcState is one booted and prefilled service.
type svcState struct {
	lp      *laserveProc
	cl      *wire.Client
	led     *ledger
	size    int
	prefill []wire.Ref
}

// bootService starts laserve and prefills 90% of its capacity with
// long-TTL leases in one AcquireN frame.
func bootService(cfg *config, durable bool, tag string, t *tally) (*svcState, error) {
	lp, err := startLaserve(cfg, durable, tag)
	if err != nil {
		return nil, err
	}
	st, err := prefillService(lp, wire.NewClient(lp.wireAddr, &wire.ClientConfig{Conns: svcConns}), cfg.seed, t)
	if err != nil {
		lp.stop()
		return nil, err
	}
	return st, nil
}

func prefillService(lp *laserveProc, cl *wire.Client, seed uint64, t *tally) (*svcState, error) {
	arr, err := newArray(seed) // the same configuration laserve builds, for its namespace size
	if err != nil {
		return nil, err
	}
	st := &svcState{lp: lp, cl: cl, size: arr.Size(), led: newLedger(arr.Size(), t)}
	req := &wire.Request{Op: wire.OpAcquireN, TTLMillis: svcPrefillTTLms, N: prefill}
	var resp wire.Response
	if err := cl.Do(req, &resp); err != nil {
		return nil, fmt.Errorf("prefill: %w", err)
	}
	if resp.Status != wire.StatusOK || len(resp.Grants) != prefill {
		return nil, fmt.Errorf("prefill: status %d code %v, %d of %d grants", resp.Status, resp.Code, len(resp.Grants), prefill)
	}
	recv := time.Now().UnixNano()
	for _, g := range resp.Grants {
		st.led.grant(int(g.Name), g.Token, recv)
		st.prefill = append(st.prefill, wire.Ref{Name: g.Name, Token: g.Token})
	}
	return st, nil
}

// shutdown checks that every prefilled lease is still held — a batch
// release of all of them must answer 200 for each — and stops laserve.
func (st *svcState) shutdown(t *tally) {
	defer func() {
		st.cl.Close()
		if st.lp != nil {
			st.lp.stop()
		}
	}()
	var resp wire.Response
	for i := 0; i < len(st.prefill); i += wire.MaxBatch {
		req := &wire.Request{Op: wire.OpReleaseN, Items: st.prefill[i:min(i+wire.MaxBatch, len(st.prefill))]}
		if err := st.cl.Do(req, &resp); err != nil {
			t.violate("releasing the prefilled leases: %v", err)
			return
		}
		for j, it := range resp.Items {
			if it.Status != wire.StatusOK {
				t.violate("prefilled lease %d no longer held at the end: status %d %v", req.Items[j].Name, it.Status, it.Code)
			}
		}
	}
}

// svcWorker is one session goroutine of a service workload. A session
// acquires a name, renews it once in renewOneIn sessions, and releases it;
// one session in abandonOneIn acquires a lease for abandonTTL and abandons
// it to the expirer instead.
type svcWorker struct{ opStats }

// doer performs one wire exchange; the traced run interposes on it.
type doer interface {
	Do(req *wire.Request, resp *wire.Response) error
}

// sessionDoer is a doer that is told where sessions begin and end.
type sessionDoer interface {
	doer
	begin()
	end()
}

func (sw *svcWorker) run(st *svcState, cl doer, g int, seed uint64, p *phase, t *tally) {
	sw.start(p.nwin)
	r := newRNG(seed, 100+g)
	req, resp := &wire.Request{}, &wire.Response{}
	var sessions int64
	// do sends one request and reports the receive time; a transport error
	// is counted as failed and leaves the lease's state unknown.
	do := func(op wire.Opcode, ttl int64, ref wire.Ref, into *lat) (time.Time, error) {
		req.Op, req.TTLMillis, req.ID = op, ttl, 0
		req.Items = req.Items[:0]
		if op != wire.OpAcquire {
			req.Items = append(req.Items, ref)
		}
		w := p.window()
		t0 := time.Now()
		err := cl.Do(req, resp)
		t1 := time.Now()
		sw.ops++
		if into != nil {
			into.add(w, int64(t1.Sub(t0)))
		}
		if err != nil || resp.Status != wire.StatusOK {
			sw.fails++
		}
		return t1, err
	}
	sd, traced := cl.(sessionDoer)
	for !p.done() {
		abandon := r.chance(abandonOneIn)
		renew := !abandon && r.chance(renewOneIn)
		if traced {
			sd.begin()
		}
		ttl := leaseTTL.Milliseconds()
		if abandon {
			ttl = abandonTTL.Milliseconds()
		}
		recv, err := do(wire.OpAcquire, ttl, wire.Ref{}, sw.acq)
		if err != nil || resp.Status != wire.StatusOK {
			if resp.Status == wire.StatusUnavailable && resp.RetryAfterMillis > 0 {
				time.Sleep(time.Duration(resp.RetryAfterMillis) * time.Millisecond)
			}
			continue
		}
		gr := resp.Grants[0]
		ref := wire.Ref{Name: gr.Name, Token: gr.Token}
		deadline := gr.DeadlineUnixMilli * 1e6
		if !st.led.grant(int(gr.Name), gr.Token, recv.UnixNano()) {
			return
		}
		if !abandon && renew {
			if _, err := do(wire.OpRenew, leaseTTL.Milliseconds(), ref, nil); err != nil {
				abandon = true // outcome unknown: the lease may run to its last stated deadline
			} else if resp.Status != wire.StatusOK {
				t.violate("renew of held lease %d: status %d %v", ref.Name, resp.Status, resp.Code)
				return
			} else {
				deadline = resp.Grants[0].DeadlineUnixMilli * 1e6
			}
		}
		if !abandon {
			st.led.release(int(gr.Name))
			if _, err := do(wire.OpRelease, 0, ref, sw.rel); err != nil {
				abandon = true
			} else if resp.Status != wire.StatusOK {
				t.violate("release of held lease %d: status %d %v", ref.Name, resp.Status, resp.Code)
				return
			}
		}
		if abandon {
			st.led.abandon(int(gr.Name), deadline)
		}
		if traced {
			sd.end()
		}
		sessions++
		p.count[g].n.Store(sessions)
	}
}

// collector Collects over the wire every svcCollectEvery and checks each
// result: names inside the namespace, every prefilled lease present.
type collector struct{ opStats }

func (c *collector) run(st *svcState, cl doer, p *phase, t *tally) {
	c.col = newLat(p.nwin)
	req, resp := &wire.Request{Op: wire.OpCollect}, &wire.Response{}
	seen := make([]uint64, (st.size+63)/64)
	var cr struct {
		Names []int `json:"names"`
	}
	mine := make([]int, len(st.prefill))
	for i, ref := range st.prefill {
		mine[i] = int(ref.Name)
	}
	next := time.Now()
	for !p.done() {
		next = next.Add(svcCollectEvery)
		w := p.window()
		req.ID = 0
		t0 := now()
		err := cl.Do(req, resp)
		c.col.add(w, now()-t0)
		c.ops++
		if err != nil || resp.Status != wire.StatusOK {
			c.fails++
		} else if err := json.Unmarshal(resp.Blob, &cr); err != nil {
			t.violate("collect payload: %v", err)
		} else {
			collectCheck(cr.Names, mine, seen, st.size, t)
		}
		time.Sleep(time.Until(next))
	}
}

// runService drives a real laserve over the wire: svcSessions sessions in
// flight on svcConns pooled connections over a 90% prefill of long leases,
// plus one collector.
func runService(cfg *config, t *tally, durable bool) (metricSet, error) {
	rep := 0
	build := func() (*svcState, func(), error) {
		rep++
		st, err := bootService(cfg, durable, strconv.Itoa(rep), t)
		if err != nil {
			return nil, nil, err
		}
		return st, func() { st.shutdown(t) }, nil
	}
	var su setupTimes
	st, _, err := timeSetups(&su, svcSetupReps-svcSetupReps/2, build)
	if err != nil {
		return nil, err
	}
	ph, acq, rel, col := driveService(st, func(int) doer { return st.cl }, cfg.seed, warmFor(cfg.seconds), secondsDur(cfg.seconds), t)
	rss, err := peakRSSMB(st.lp.pid)
	st.shutdown(t)
	if err != nil {
		return nil, err
	}
	_, release, err := timeSetups(&su, svcSetupReps/2, build)
	if err != nil {
		return nil, err
	}
	release()
	return endToEnd(ph, su, rss, acq, rel, col), nil
}

// driveService runs the session goroutines and the collector against st,
// goroutine g through doerFor(g) (the collector is goroutine svcSessions),
// adds their counts to t and returns their merged latencies.
func driveService(st *svcState, doerFor func(g int) doer, seed uint64, warm, dur time.Duration, t *tally) (ph *phase, acq, rel, col *latSet) {
	ws := make([]*svcWorker, svcSessions)
	for g := range ws {
		ws[g] = &svcWorker{}
	}
	c := &collector{}
	ph = runPhase(svcSessions+1, warm, dur, func(g int, p *phase) {
		if g == svcSessions {
			c.run(st, doerFor(g), p, t)
			return
		}
		ws[g].run(st, doerFor(g), g, seed, p, t)
	})
	acq, rel, _ = gather(t, ws...)
	_, _, col = gather(t, c)
	return ph, acq, rel, col
}
