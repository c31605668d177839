package lease

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/levelarray/levelarray/internal/activity"
	"github.com/levelarray/levelarray/internal/core"
	"github.com/levelarray/levelarray/internal/shard"
)

// TestCollectDuringStealsAndExpiry is the end-to-end collect-validity test
// for the full stack: a sharded array under enough load that home shards
// overflow and Gets steal across shards, a background expirer reaping
// abandoned leases, and concurrent Collect scans. It asserts the paper's
// validity guarantee at the lease level — a Collect may only ever return
// names that some lease held (no invented names, no duplicates within one
// scan, and none before an Acquire that returned it was invoked) — and that
// after quiescing and expiring everything, the system drains to exactly
// empty with the lease table and bitmaps in agreement. It is designed to
// run under -race.
func TestCollectDuringStealsAndExpiry(t *testing.T) {
	const (
		shards  = 4
		workers = 8
		tick    = 2 * time.Millisecond
		runFor  = 300 * time.Millisecond
	)
	// Deliberately unbalanced shards (one big, three tiny, via the NewShard
	// factory): handles homed on the tiny shards overflow almost immediately
	// and steal into the big one, so the cross-shard path runs continuously
	// instead of only at total saturation.
	arr := shard.MustNew(shard.Config{Shards: shards, Capacity: 32,
		NewShard: func(sh, capacity int, seed uint64) (activity.Array, error) {
			if sh == 0 {
				return core.New(core.Config{Capacity: 16, Seed: seed})
			}
			return core.New(core.Config{Capacity: 2, Seed: seed})
		}})
	m := MustNewManager(arr, Config{TickInterval: tick})
	m.Start()
	defer m.Close()

	// A name is held from its Get's test-and-set on, which happens inside
	// Acquire, before the lease is returned; so a Collect may legitimately
	// return a name whose Acquire has not returned yet. Validity is checked
	// on intervals instead: firstInvoke[name] is the earliest time (on the
	// monotonic clock, relative to start) at which an Acquire that returned
	// name was invoked, firstCollected[name] the earliest time a Collect
	// containing name returned. Every collected name must have had its
	// Acquire invoked before that Collect returned.
	start := time.Now()
	since := func() int64 { return int64(time.Since(start)) }
	firstInvoke := make([]atomic.Int64, arr.Size())
	firstCollected := make([]atomic.Int64, arr.Size())
	for i := range firstInvoke {
		firstInvoke[i].Store(math.MaxInt64)
		firstCollected[i].Store(math.MaxInt64)
	}

	var (
		stop     atomic.Bool
		wg       sync.WaitGroup
		abandons atomic.Uint64
		steals   atomic.Uint64
	)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rounds := 0
			for !stop.Load() {
				rounds++
				invoked := since()
				l, err := m.Acquire(4 * tick)
				if err != nil {
					if errors.Is(err, activity.ErrFull) {
						// Abandoned leases hold slots until expiry; yield and
						// let the expirer drain.
						time.Sleep(tick)
						continue
					}
					t.Errorf("worker %d: Acquire: %v", w, err)
					return
				}
				storeMin(&firstInvoke[l.Name], invoked)
				if rounds%5 == 0 {
					// Crash: walk away without releasing. The expirer must
					// reclaim the slot; a later stale Release must bounce.
					abandons.Add(1)
					continue
				}
				if rounds%3 == 0 {
					if _, err := m.Renew(l.Name, l.Token, 4*tick); err != nil {
						t.Errorf("worker %d: live Renew: %v", w, err)
						return
					}
				}
				if err := m.Release(l.Name, l.Token); err != nil {
					t.Errorf("worker %d: live Release: %v", w, err)
					return
				}
			}
		}()
	}

	// Track steal volume so the test actually fails if the scenario stops
	// exercising the cross-shard path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			var total uint64
			for _, s := range arr.ShardStats() {
				total += s.StealsIn
			}
			steals.Store(total)
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Concurrent collectors: validity within every single scan.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]int, 0, arr.Size())
			seen := make(map[int]bool, arr.Size())
			for !stop.Load() {
				buf = m.Collect(buf[:0])
				returned := since()
				clear(seen)
				for _, name := range buf {
					if name < 0 || name >= arr.Size() {
						t.Errorf("Collect returned name %d outside namespace [0, %d)", name, arr.Size())
						return
					}
					if seen[name] {
						t.Errorf("Collect returned duplicate name %d in one scan", name)
						return
					}
					seen[name] = true
					storeMin(&firstCollected[name], returned)
				}
			}
		}()
	}

	time.Sleep(runFor)
	stop.Store(true)
	wg.Wait()

	for name := range firstCollected {
		if c := firstCollected[name].Load(); c != math.MaxInt64 && firstInvoke[name].Load() >= c {
			t.Errorf("Collect returned name %d at %v, before any Acquire that returned it was invoked (first at %v)",
				name, time.Duration(c), time.Duration(firstInvoke[name].Load()))
		}
	}
	if abandons.Load() == 0 {
		t.Fatal("scenario never abandoned a lease; expiry path not exercised")
	}
	if steals.Load() == 0 {
		t.Fatal("scenario never stole across shards; steal path not exercised")
	}

	// Quiesce: everything left is abandoned; two tick windows past the
	// longest TTL must drain the system to empty.
	deadline := time.Now().Add(2 * time.Second)
	for m.Active() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("expirer failed to drain %d abandoned leases", m.Active())
		}
		time.Sleep(tick)
	}
	if names := m.Collect(nil); len(names) != 0 {
		t.Fatalf("Collect after drain = %v, want empty", names)
	}
	if orphans, missing := m.Verify(); len(orphans) != 0 || len(missing) != 0 {
		t.Fatalf("Verify after drain: orphan bits %v, missing bits %v", orphans, missing)
	}
	s := m.Stats()
	if s.Expirations < abandons.Load() {
		t.Fatalf("Expirations = %d, want at least the %d abandoned leases", s.Expirations, abandons.Load())
	}
	if s.Acquires != s.Releases+s.Expirations {
		t.Fatalf("ledger mismatch: %d acquires vs %d releases + %d expirations", s.Acquires, s.Releases, s.Expirations)
	}
}

// storeMin lowers v to x if x is smaller.
func storeMin(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if x >= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}
