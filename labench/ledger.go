package main

import "sync/atomic"

// Name states in a ledger.
const (
	nameFree int64 = 0
	nameHeld int64 = -1
	// Any positive state is an abandoned lease: the name stays held until
	// that deadline (Unix nanoseconds) and may be granted again from then.
)

// ledger checks the lease contract from the client side, one state word
// and one last-token word per name:
//
//   - no name is granted while a live session holds it, or before the
//     deadline its abandoned lease was last stated to run to;
//   - fencing tokens increase strictly per name.
//
// A client marks a name free before it sends the release, so a grant that
// races the release is never mistaken for a double grant.
type ledger struct {
	state []atomic.Int64
	token []atomic.Uint64
	t     *tally
}

func newLedger(size int, t *tally) *ledger {
	return &ledger{state: make([]atomic.Int64, size), token: make([]atomic.Uint64, size), t: t}
}

// grant checks one grant of name with token; respUnix is the wall-clock
// time (Unix nanoseconds) at which the grant was received, which is after
// the server made it.
func (l *ledger) grant(name int, token uint64, respUnix int64) bool {
	if name < 0 || name >= len(l.state) {
		l.t.violate("granted name %d outside namespace [0, %d)", name, len(l.state))
		return false
	}
	prev := l.token[name].Load()
	if token <= prev {
		l.t.violate("name %d granted with token %d, not above its previous token %d", name, token, prev)
		return false
	}
	if !l.token[name].CompareAndSwap(prev, token) {
		l.t.violate("name %d granted twice concurrently", name)
		return false
	}
	s := l.state[name].Load()
	switch {
	case s == nameHeld:
		l.t.violate("name %d granted while a live session holds it", name)
		return false
	case s > 0 && respUnix < s:
		l.t.violate("name %d granted %dµs before its abandoned lease's stated deadline", name, (s-respUnix)/1e3)
		return false
	}
	if !l.state[name].CompareAndSwap(s, nameHeld) {
		l.t.violate("name %d granted twice concurrently", name)
		return false
	}
	return true
}

// release marks name free; call it before sending the release.
func (l *ledger) release(name int) { l.state[name].Store(nameFree) }

// abandon marks name held until deadlineUnix, after which the expirer may
// grant it again.
func (l *ledger) abandon(name int, deadlineUnix int64) { l.state[name].Store(max(deadlineUnix, 1)) }
