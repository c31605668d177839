package lease

import "time"

// Session describes one active lease in a debug listing: the Lease fields a
// holder was granted, re-read from the live table. Listings power the
// GET /leases endpoint and cmd/lactl, and give failover tests a way to
// enumerate exactly which names a node held when it was killed.
type Session struct {
	Name     int       `json:"name"`
	Token    uint64    `json:"token"`
	Deadline time.Time `json:"deadline,omitzero"` // zero for an infinite lease
}

// Sessions returns up to limit active sessions with Name >= start, in
// ascending name order, together with the cursor to pass as the next start
// (-1 when the scan reached the end of the namespace). Like Collect it is
// not an atomic snapshot: each entry is read under its own lock, so a
// concurrent release or expiry may hide a session the caller saw granted,
// but every returned session was active at the instant it was read.
func (m *Manager) Sessions(start, limit int) ([]Session, int) {
	if start < 0 {
		start = 0
	}
	if limit <= 0 {
		return nil, nextCursor(start, len(m.entries))
	}
	var page []Session
	for name := start; name < len(m.entries); name++ {
		e := &m.entries[name]
		e.mu.Lock()
		if e.active {
			page = append(page, Session{Name: name, Token: e.token, Deadline: fromNanos(e.deadline)})
		}
		e.mu.Unlock()
		if len(page) == limit {
			return page, nextCursor(name+1, len(m.entries))
		}
	}
	return page, -1
}

// nextCursor maps a resume index to the wire cursor encoding: -1 once the
// namespace is exhausted.
func nextCursor(next, size int) int {
	if next >= size {
		return -1
	}
	return next
}

// LoadFactor returns the fraction of the manager's capacity currently held
// by active leases — the per-partition occupancy signal the cluster layer
// uses to pick acquire targets and to reason about rebalancing.
func (m *Manager) LoadFactor() float64 {
	if c := m.arr.Capacity(); c > 0 {
		return float64(m.sumActive()) / float64(c)
	}
	return 0
}
