package levelarray

import (
	"github.com/levelarray/levelarray/internal/lease"
)

// Leased wraps any Array (a LevelArray or a Sharded composition) in a lease
// manager: every registration becomes a TTL-bounded, token-fenced session,
// the crash-safety layer for holders that may never call Free — remote
// clients, preemptible workers, anything outside the process. Acquire
// returns a name plus a fencing token and deadline, Renew extends it,
// Release frees it, and a background expirer (Start) reclaims overdue names
// in one walk of the lease table per tick, cross-checked against the array's
// word-level bitmap state. See the internal/lease package
// documentation for the full contract.
//
//	arr := levelarray.MustNewSharded(levelarray.ShardedConfig{Capacity: 4096})
//	mgr, err := levelarray.NewLeased(arr, levelarray.LeaseConfig{})
//	mgr.Start()                       // background expirer
//	l, err := mgr.Acquire(5 * time.Second)
//	...                               // use l.Name; renew before l.Deadline
//	_, err = mgr.Renew(l.Name, l.Token, 5*time.Second)
//	err = mgr.Release(l.Name, l.Token)
//	mgr.Close()
//
// cmd/laserve serves a Leased manager over HTTP/JSON, and cmd/laload drives
// and verifies it from the client side.
type Leased = lease.Manager

// LeaseConfig parameterizes a Leased manager (expirer tick interval, maximum
// TTL, token sequence base, clock override, journal).
type LeaseConfig = lease.Config

// Lease describes one granted session: the name, its fencing token, and the
// deadline (zero for an infinite lease).
type Lease = lease.Lease

// LeaseStats is the lease manager's observability snapshot: active leases,
// operation and expiration counts, stale-token rejections, orphan reclaims.
type LeaseStats = lease.Stats

// Errors returned by the lease layer beyond those of the underlying Array.
var (
	// ErrStaleToken is returned by Renew and Release when the presented
	// fencing token does not match the name's current lease.
	ErrStaleToken = lease.ErrStaleToken
	// ErrNotLeased is returned by Renew and Release when the name has no
	// active lease.
	ErrNotLeased = lease.ErrNotLeased
	// ErrLeaseManagerClosed is returned after Close.
	ErrLeaseManagerClosed = lease.ErrClosed
	// ErrTTLTooLong is returned when a requested TTL exceeds the configured
	// MaxTTL.
	ErrTTLTooLong = lease.ErrTTLTooLong
)

// NewLeased builds a lease manager over arr. The expirer is not started;
// call Start for background expiry (or Tick from a test clock).
func NewLeased(arr Array, cfg LeaseConfig) (*Leased, error) {
	return lease.NewManager(arr, cfg)
}

// MustNewLeased is NewLeased but panics on error; for examples and tests.
func MustNewLeased(arr Array, cfg LeaseConfig) *Leased {
	return lease.MustNewManager(arr, cfg)
}
