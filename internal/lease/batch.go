package lease

import (
	"errors"
	"fmt"
	"time"

	"github.com/levelarray/levelarray/internal/activity"
	"github.com/levelarray/levelarray/internal/wal"
)

// Ref addresses one held lease in a batch operation.
type Ref struct {
	Name  int
	Token uint64
}

// RenewOutcome is the per-lease result of RenewAll.
type RenewOutcome struct {
	// Err is nil on success, else ErrNotLeased or ErrStaleToken.
	Err error
	// Deadline is the renewed deadline (zero time = infinite) when Err is nil.
	Deadline time.Time
}

// AcquireN grants up to n leases with one shared TTL in a single pass: one
// clock read and one deadline for the whole batch, one stripe for its
// counters, and under a journal one group commit. Grants stop early at the
// first registration failure (typically activity.ErrFull).
//
// It returns the granted prefix appended to dst. The error is non-nil only
// when nothing was granted: a partially filled batch is a success whose
// length says how much namespace was left.
func (m *Manager) AcquireN(n int, ttl time.Duration, dst []Lease) ([]Lease, error) {
	if m.closed.Load() {
		return dst, ErrClosed
	}
	if n <= 0 {
		return dst, nil
	}
	ttl, err := m.clampTTL(ttl)
	if err != nil {
		return dst, err
	}
	var deadline int64
	if ttl > 0 {
		deadline = m.now().Add(ttl).UnixNano()
	}

	base := len(dst)
	var firstErr error
	var recs []wal.Record
	st := m.pick()
	m.journalRLock()
	for i := 0; i < n; i++ {
		h := m.getHandle(st)
		st.pendingGets.Add(1)
		name, err := h.Get()
		if err != nil {
			st.pendingGets.Add(-1)
			st.put(h)
			if errors.Is(err, activity.ErrFull) {
				m.failedAcquires.Add(1)
			}
			firstErr = err
			break
		}
		token := m.mintToken(h)
		e := &m.entries[name]
		e.mu.Lock()
		e.active = true
		e.token = token
		e.deadline = deadline
		e.handle = h
		e.mu.Unlock()
		st.pendingGets.Add(-1)
		if m.journal != nil {
			recs = append(recs, wal.Record{Op: wal.OpAcquire, Name: uint32(name), Token: token, Deadline: deadline})
		}
		dst = append(dst, Lease{Name: name, Token: token, Deadline: fromNanos(deadline)})
	}
	if m.journal != nil && len(recs) > 0 {
		// One group commit covers the whole batch. On failure the grants are
		// rolled back before any token escapes: nobody but this goroutine
		// knows them, so the token re-check below is purely defensive.
		if err := m.journal.AppendBatch(recs); err != nil {
			for _, l := range dst[base:] {
				e := &m.entries[l.Name]
				e.mu.Lock()
				if e.active && e.token == l.Token {
					h := e.handle
					e.active = false
					e.handle = nil
					_ = h.Free()
					st.put(h)
				}
				e.mu.Unlock()
			}
			m.journalRUnlock()
			return dst[:base], fmt.Errorf("lease: journal acquire batch: %w", err)
		}
	}
	m.journalRUnlock()
	granted := len(dst) - base
	st.acquires.Add(uint64(granted))
	if granted == 0 && firstErr != nil {
		return dst, firstErr
	}
	return dst, nil
}

// RenewAll extends every lease in refs to one shared deadline in a single
// pass: one clock read for the batch, per-entry fencing exactly as Renew,
// and under a journal one group commit. Outcomes are reported per lease in
// the returned slice (appended to dst, index-aligned with refs); a stale or
// missing lease does not stop the rest of the batch. The error is non-nil only for whole-batch failures
// (ErrClosed, ErrTTLTooLong).
func (m *Manager) RenewAll(refs []Ref, ttl time.Duration, dst []RenewOutcome) ([]RenewOutcome, error) {
	if m.closed.Load() {
		return dst, ErrClosed
	}
	ttl, err := m.clampTTL(ttl)
	if err != nil {
		return dst, err
	}
	var deadline int64
	if ttl > 0 {
		deadline = m.now().Add(ttl).UnixNano()
	}
	deadlineTime := fromNanos(deadline)

	var recs []wal.Record
	var renewed uint64
	m.journalRLock()
	for _, ref := range refs {
		if ref.Name < 0 || ref.Name >= len(m.entries) {
			m.renewRaces.Add(1)
			dst = append(dst, RenewOutcome{Err: ErrNotLeased})
			continue
		}
		e := &m.entries[ref.Name]
		e.mu.Lock()
		if !e.active {
			e.mu.Unlock()
			m.renewRaces.Add(1)
			dst = append(dst, RenewOutcome{Err: ErrNotLeased})
			continue
		}
		if e.token != ref.Token {
			e.mu.Unlock()
			m.renewRaces.Add(1)
			dst = append(dst, RenewOutcome{Err: ErrStaleToken})
			continue
		}
		e.deadline = deadline
		e.mu.Unlock()
		if m.journal != nil {
			recs = append(recs, wal.Record{Op: wal.OpRenew, Name: uint32(ref.Name), Token: ref.Token, Deadline: deadline})
		}
		renewed++
		dst = append(dst, RenewOutcome{Deadline: deadlineTime})
	}
	if m.journal != nil && len(recs) > 0 {
		// One group commit for the batch, durable before any outcome is
		// acked. On failure the batch reports a whole-batch error; the
		// in-memory extensions stand, which only lengthens the leases
		// relative to what the (unacked) callers believe — the safe side.
		if err := m.journal.AppendBatch(recs); err != nil {
			m.journalRUnlock()
			return dst, fmt.Errorf("lease: journal renew batch: %w", err)
		}
	}
	m.journalRUnlock()
	m.pick().renews.Add(renewed)
	return dst, nil
}
