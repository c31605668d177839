package lease

import (
	"time"

	"github.com/levelarray/levelarray/internal/activity"
	"github.com/levelarray/levelarray/internal/wal"
)

// Tick runs one expirer pass at the current clock: every active lease whose
// deadline has passed is expired, and the orphan cross-check sweep runs. The
// background expirer calls it every TickInterval; tests with a fake clock
// call it directly.
func (m *Manager) Tick() {
	m.tickMu.Lock()
	defer m.tickMu.Unlock()
	m.expireDue(m.now().UnixNano())
	m.sweep()
	m.ticks.Add(1)
}

// expireDue walks the lease table once and expires every active lease whose
// deadline is at or before now. The walk reads each entry under its lock, so
// it needs no record of when leases fall due: an expiry is never early, and
// at most one tick late because a pass runs every TickInterval.
func (m *Manager) expireDue(now int64) {
	var expired uint64
	for name := range m.entries {
		e := &m.entries[name]
		e.mu.Lock()
		due := e.active && e.deadline != 0 && e.deadline <= now
		e.mu.Unlock()
		if due && m.expire(e, name, now) {
			expired++
		}
	}
	m.expirations.Add(expired)
}

// expire ends the lease on name if it is still due, journaling the expiry
// under the checkpoint barrier like any other transition. It frees through
// the lease's own handle even when the bit was cleared behind the manager,
// so such a lease still ends.
func (m *Manager) expire(e *entry, name int, now int64) bool {
	m.journalRLock()
	defer m.journalRUnlock()
	e.mu.Lock()
	if !e.active || e.deadline == 0 || e.deadline > now {
		// Renewed or released since the walk looked.
		e.mu.Unlock()
		return false
	}
	if m.journal != nil {
		// Best-effort: there is no client to ack, and a lost expiry
		// record merely replays the lease as held until its (already
		// lapsed) deadline expires it again after restore.
		_ = m.journal.Append(wal.OpExpire, uint32(name), e.token, 0)
	}
	h := e.handle
	_ = h.Free()
	e.active = false
	e.handle = nil
	e.mu.Unlock()
	m.pick().put(h)
	return true
}

// sweep is the word-level cross-check: it walks every bitmap view
// (tas.BitmapSpace.ForEachSet, one atomic load per 64 slots) and compares
// set bits against the lease table. A bit observed set with no active lease
// on two consecutive sweeps — one full tick apart, far longer than the
// instant between a Get and its lease activation — is an orphan and is
// reclaimed directly on the bitmap.
//
// Reclamation is exact, not merely probable. Under the entry lock the sweep
// re-reads the bit and then sums pendingGets over the stripes. While it
// holds the lock, nothing frees the bit through the manager (every Free of
// a leased or pending slot happens under its entry lock), so if the re-read
// sees it set, the holder is either a bypass of the manager or an Acquire A
// that won the bit and has not activated the entry yet. A incremented its
// stripe's pendingGets before its Get, and so before the re-read; it
// decrements the same stripe only after activating the entry, which needs
// the lock the sweep holds. So the sweep's load of that stripe counts A,
// every other stripe reads >= 0, and the sum is >= 1: the sweep reclaims
// only when no Acquire holds the bit. The sum need not be an atomic
// snapshot for this.
func (m *Manager) sweep() {
	if len(m.views) == 0 {
		return
	}
	// Orphan reclaims mutate bitmap bits outside any journaled transition,
	// so they must not interleave with a checkpoint's word capture.
	m.journalRLock()
	defer m.journalRUnlock()
	next := make(map[int]struct{})
	for _, v := range m.views {
		v.space.ForEachSet(v.base, func(name int) bool {
			e := &m.entries[name]
			e.mu.Lock()
			if e.active {
				e.mu.Unlock()
				return true
			}
			if _, suspected := m.suspects[name]; suspected {
				if !v.space.Read(name - v.base) {
					// Freed since the word was loaded: not an orphan.
					e.mu.Unlock()
					return true
				}
				if m.sumPendingGets() == 0 {
					v.space.Reset(name - v.base)
					e.mu.Unlock()
					m.orphans.Add(1)
					return true
				}
			}
			e.mu.Unlock()
			// First sighting — or an acquire was in flight, which keeps the
			// name suspected rather than restarting its two-sweep clock.
			next[name] = struct{}{}
			return true
		})
	}
	m.suspects = next
}

// Start launches the background expirer, one Tick per TickInterval. It is
// idempotent, and a no-op on a closed manager; Close stops it.
func (m *Manager) Start() {
	m.lifeMu.Lock()
	defer m.lifeMu.Unlock()
	if m.started || m.closed.Load() {
		return
	}
	m.started = true
	go func() {
		defer close(m.done)
		ticker := time.NewTicker(m.cfg.TickInterval)
		defer ticker.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-ticker.C:
				m.Tick()
			}
		}
	}()
}

// Close stops the background expirer (waiting for an in-flight pass to
// finish) and rejects further Acquire/Renew/Release calls; a Start after (or
// racing) Close never launches an expirer. It is idempotent. Active leases
// are not released; callers that want a clean shutdown drain them first.
func (m *Manager) Close() {
	m.lifeMu.Lock()
	m.closed.Store(true)
	wasStarted := m.started
	if !m.stopClosed {
		close(m.stop)
		m.stopClosed = true
	}
	m.lifeMu.Unlock()
	if wasStarted {
		<-m.done
	}
}

// Stats is the manager's observability snapshot.
type Stats struct {
	// Active is the number of currently held leases.
	Active int64 `json:"active"`
	// Acquires, Renews and Releases count successful operations.
	Acquires uint64 `json:"acquires"`
	Renews   uint64 `json:"renews"`
	Releases uint64 `json:"releases"`
	// Expirations counts leases reaped by the expirer.
	Expirations uint64 `json:"expirations"`
	// FailedAcquires counts Acquires that failed with ErrFull.
	FailedAcquires uint64 `json:"failed_acquires"`
	// RenewRaces and ReleaseRaces count stale-token (or not-leased)
	// rejections: a renewer or releaser losing the race against expiry or
	// reissue.
	RenewRaces   uint64 `json:"renew_races"`
	ReleaseRaces uint64 `json:"release_races"`
	// OrphansReclaimed counts bits the cross-check sweep reclaimed because
	// they stayed set with no lease record.
	OrphansReclaimed uint64 `json:"orphans_reclaimed"`
	// Ticks counts completed expirer passes.
	Ticks uint64 `json:"ticks"`
}

// Stats returns a point-in-time snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	s := Stats{
		Active:           m.sumActive(),
		Expirations:      m.expirations.Load(),
		FailedAcquires:   m.failedAcquires.Load(),
		RenewRaces:       m.renewRaces.Load(),
		ReleaseRaces:     m.releaseRaces.Load(),
		OrphansReclaimed: m.orphans.Load(),
		Ticks:            m.ticks.Load(),
	}
	for i := range m.stripes {
		st := &m.stripes[i]
		s.Acquires += st.acquires.Load()
		s.Renews += st.renews.Load()
		s.Releases += st.releases.Load()
	}
	return s
}

// ProbeStats merges the registration-cost statistics of every handle the
// manager ever created, connecting the lease layer to the repository's
// probe-count reporting. Handles are not safe for concurrent use, so this
// must only be called on a quiesced manager (no in-flight operations and the
// expirer stopped), e.g. after Close.
func (m *Manager) ProbeStats() activity.ProbeStats {
	m.allMu.Lock()
	defer m.allMu.Unlock()
	var merged activity.ProbeStats
	for _, h := range m.all {
		merged.Merge(h.Stats())
	}
	return merged
}

// Verify cross-checks the lease table against the bitmap state in both
// directions and returns the disagreements: set bits with no active lease
// (orphan candidates the sweep would reclaim) and active leases whose bit is
// clear (a double free bypassing the manager). Like Collect it is not an
// atomic snapshot, so call it on a quiesced manager for exact results; nil
// slices mean agreement. Arrays without bitmap views report no orphans.
func (m *Manager) Verify() (orphanBits, missingBits []int) {
	covered := make(map[int]bool)
	for _, v := range m.views {
		v.space.ForEachSet(v.base, func(name int) bool {
			covered[name] = true
			e := &m.entries[name]
			e.mu.Lock()
			if !e.active {
				orphanBits = append(orphanBits, name)
			}
			e.mu.Unlock()
			return true
		})
	}
	if len(m.views) == 0 {
		return nil, nil
	}
	for name := range m.entries {
		e := &m.entries[name]
		e.mu.Lock()
		if e.active && !covered[name] {
			missingBits = append(missingBits, name)
		}
		e.mu.Unlock()
	}
	return orphanBits, missingBits
}
