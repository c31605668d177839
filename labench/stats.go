package main

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// clockBase anchors now(); time.Since reads only the monotonic clock.
var clockBase = time.Now()

// now returns monotonic nanoseconds since start-up.
func now() int64 { return int64(time.Since(clockBase)) }

// windowLen is the window size of every measured phase: the measured interval is cut
// into windows of about this length, and rates and percentiles are the
// median over windows, so one stall moves one window and not the result.
const windowLen = 500 * time.Millisecond

// phase runs workers for a warm-up and then a measured interval split into
// windows. Workers poll done, read the current window from win, and publish
// their completed-session counts in count.
type phase struct {
	win     atomic.Int32 // -1 warm-up, 0..nwin-1 measuring, nwin after
	stop    atomic.Bool
	nwin    int
	count   []paddedCount
	rates   []float64 // sessions per second of each window
	elapsed time.Duration
}

type paddedCount struct {
	n atomic.Int64
	_ [56]byte
}

// done reports whether workers should return.
func (p *phase) done() bool { return p.stop.Load() }

// window returns the current window index, or -1 outside the measured span.
func (p *phase) window() int {
	w := int(p.win.Load())
	if w >= p.nwin {
		return -1
	}
	return w
}

// runPhase starts workers goroutines running body, waits warm, measures dur
// in windows, stops the workers and waits for them.
func runPhase(workers int, warm, dur time.Duration, body func(w int, p *phase)) *phase {
	nwin := max(1, int(math.Round(float64(dur)/float64(windowLen))))
	p := &phase{nwin: nwin, count: make([]paddedCount, workers)}
	p.win.Store(-1)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(w, p)
		}()
	}
	sum := func() int64 {
		var s int64
		for i := range p.count {
			s += p.count[i].n.Load()
		}
		return s
	}
	time.Sleep(warm)
	prev, t0 := sum(), time.Now()
	start := t0
	p.win.Store(0)
	for i := range nwin {
		time.Sleep(time.Until(start.Add(time.Duration(i+1) * dur / time.Duration(nwin))))
		cur, t1 := sum(), time.Now()
		p.win.Store(int32(i + 1))
		p.rates = append(p.rates, float64(cur-prev)/t1.Sub(t0).Seconds())
		prev, t0 = cur, t1
	}
	p.elapsed = time.Since(start)
	p.stop.Store(true)
	wg.Wait()
	fmt.Printf("windows sessions_per_s %.0f\n", p.rates)
	return p
}

// lat is one goroutine's latency histogram per window: log-linear buckets
// of 1/64 octave (exact below 64 ns), about 7 KiB a window however many
// samples it holds.
type lat struct{ win []*hist }

type hist [histBuckets]uint32

const histBuckets = 28 * 64 // up to 2^32 ns

func newLat(nwin int) *lat { return &lat{win: make([]*hist, nwin)} }

// bucketOf maps nanoseconds to a bucket index.
func bucketOf(v uint64) int {
	if v < 64 {
		return int(v)
	}
	e := bits.Len64(v) - 7 // v>>e is in [64, 128)
	return min((e+1)*64+int(v>>e)-64, histBuckets-1)
}

// bucketSpan returns a bucket's lower bound and width in nanoseconds.
func bucketSpan(i int) (lo, width float64) {
	if i < 64 {
		return float64(i), 1
	}
	e := i/64 - 1
	return float64(uint64(i%64+64) << e), float64(uint64(1) << e)
}

// add records d nanoseconds in window w; w < 0 drops the sample.
func (l *lat) add(w int, d int64) {
	if w < 0 {
		return
	}
	h := l.win[w]
	if h == nil {
		h = new(hist)
		l.win[w] = h
	}
	h[bucketOf(uint64(max(d, 0)))]++
}

// latSet is the merged histograms of several goroutines.
type latSet struct{ win []*hist }

func mergeLat(ls ...*lat) *latSet {
	s := &latSet{}
	for _, l := range ls {
		if l == nil {
			continue
		}
		for len(s.win) < len(l.win) {
			s.win = append(s.win, new(hist))
		}
		for w, h := range l.win {
			if h == nil {
				continue
			}
			for i, c := range h {
				s.win[w][i] += c
			}
		}
	}
	return s
}

func histCount(h *hist) int {
	n := 0
	for _, c := range h {
		n += int(c)
	}
	return n
}

// windowed returns the median over windows of each window's q-quantile, in
// microseconds. Windows with too few samples for the quantile to have ten
// beyond it are skipped; when none qualifies, all samples are pooled.
func (s *latSet) windowed(q float64) float64 {
	var per []float64
	for _, h := range s.win {
		if float64(histCount(h))*(1-q) >= 10 {
			per = append(per, quantile(h, q))
		}
	}
	if len(per) == 0 {
		return s.pooled(q)
	}
	return median(per) / 1e3
}

// windowedMean returns the median over windows of each window's mean, in
// nanoseconds; windows without samples are skipped.
func (s *latSet) windowedMean() float64 {
	var per []float64
	for _, h := range s.win {
		if n := histCount(h); n > 0 {
			var sum float64
			for i, c := range h {
				if c != 0 {
					lo, width := bucketSpan(i)
					if i >= 64 { // an interval, not an exact value
						lo += width / 2
					}
					sum += float64(c) * lo
				}
			}
			per = append(per, sum/float64(n))
		}
	}
	return median(per)
}

// pooled returns the q-quantile of all samples together, in microseconds.
func (s *latSet) pooled(q float64) float64 {
	all := new(hist)
	for _, h := range s.win {
		for i, c := range h {
			all[i] += c
		}
	}
	return quantile(all, q) / 1e3
}

// quantile returns the q-quantile of h in nanoseconds, interpolating
// linearly inside the bucket that holds it.
func quantile(h *hist, q float64) float64 {
	n := histCount(h)
	if n == 0 {
		return 0
	}
	target := q * float64(n)
	cum := 0.0
	for i, c := range h {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, width := bucketSpan(i)
			return lo + width*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := bucketSpan(histBuckets - 1)
	return lo + width
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// rng is a splitmix64 generator: every per-session draw comes from one,
// seeded from the run seed.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream int) *rng {
	return &rng{s: seed*0x9E3779B97F4A7C15 + uint64(stream+1)*0xBF58476D1CE4E5B9}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a draw in [0, n).
func (r *rng) intn(n int) int { return int((r.next() >> 32) * uint64(n) >> 32) }

// chance reports true with probability 1/n.
func (r *rng) chance(n int) bool { return r.intn(n) == 0 }
