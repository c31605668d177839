package lease

import (
	"errors"
	"testing"

	"github.com/levelarray/levelarray/internal/activity"
)

func TestAcquireNDistinctAndFenced(t *testing.T) {
	m, _ := newTestManager(t, 16)
	ttl := 5 * testTick
	leases, err := m.AcquireN(16, ttl, nil)
	if err != nil {
		t.Fatalf("AcquireN: %v", err)
	}
	if len(leases) != 16 {
		t.Fatalf("granted %d, want 16", len(leases))
	}
	if got := m.Active(); got != 16 {
		t.Fatalf("Active = %d, want 16", got)
	}
	seen := make(map[int]bool, len(leases))
	for _, l := range leases {
		if seen[l.Name] {
			t.Fatalf("name %d granted twice in one batch", l.Name)
		}
		seen[l.Name] = true
		if l.Token == 0 {
			t.Fatalf("name %d has zero token", l.Name)
		}
		if l.Deadline.IsZero() {
			t.Fatalf("name %d has no deadline for finite ttl", l.Name)
		}
	}
	// Each grant is individually fenced: the right token releases, a wrong
	// one does not.
	if err := m.Release(leases[0].Name, leases[0].Token+1); !errors.Is(err, ErrStaleToken) {
		t.Fatalf("Release with wrong token = %v, want ErrStaleToken", err)
	}
	if err := m.Release(leases[0].Name, leases[0].Token); err != nil {
		t.Fatalf("Release: %v", err)
	}
}

func TestAcquireNPartialAtCapacity(t *testing.T) {
	m, _ := newTestManager(t, 8)
	// Asking beyond the namespace is a success that grants what was left.
	leases, err := m.AcquireN(m.Size()+8, 0, nil)
	if err != nil {
		t.Fatalf("AcquireN over capacity: %v", err)
	}
	if len(leases) != m.Size() {
		t.Fatalf("granted %d, want the full namespace %d", len(leases), m.Size())
	}
	// Nothing left: now the batch fails with the registration error.
	if _, err := m.AcquireN(1, 0, nil); !errors.Is(err, activity.ErrFull) {
		t.Fatalf("AcquireN on full manager = %v, want ErrFull", err)
	}
	// n <= 0 is a no-op.
	if out, err := m.AcquireN(0, 0, nil); err != nil || len(out) != 0 {
		t.Fatalf("AcquireN(0) = %v, %v", out, err)
	}
}

func TestAcquireNBatchExpires(t *testing.T) {
	m, clk := newTestManager(t, 16)
	ttl := 3 * testTick
	leases, err := m.AcquireN(10, ttl, nil)
	if err != nil || len(leases) != 10 {
		t.Fatalf("AcquireN: %d, %v", len(leases), err)
	}
	clk.advance(2 * testTick)
	m.Tick()
	if got := m.Active(); got != 10 {
		t.Fatalf("Active before deadline = %d, want 10", got)
	}
	clk.advance(2 * testTick)
	m.Tick()
	if got := m.Active(); got != 0 {
		t.Fatalf("Active after deadline tick = %d, want 0: every grant of the batch must expire", got)
	}
}

func TestRenewAllExtendsEveryDeadline(t *testing.T) {
	m, clk := newTestManager(t, 16)
	ttl := 3 * testTick
	leases, err := m.AcquireN(8, ttl, nil)
	if err != nil || len(leases) != 8 {
		t.Fatalf("AcquireN: %d, %v", len(leases), err)
	}
	refs := make([]Ref, len(leases))
	for i, l := range leases {
		refs[i] = Ref{Name: l.Name, Token: l.Token}
	}

	clk.advance(2 * testTick)
	outcomes, err := m.RenewAll(refs, ttl, nil)
	if err != nil {
		t.Fatalf("RenewAll: %v", err)
	}
	if len(outcomes) != len(refs) {
		t.Fatalf("outcomes %d, want %d", len(outcomes), len(refs))
	}
	want := clk.now().Add(ttl)
	for i, oc := range outcomes {
		if oc.Err != nil {
			t.Fatalf("outcome %d: %v", i, oc.Err)
		}
		if !oc.Deadline.Equal(want) {
			t.Fatalf("outcome %d deadline %v, want %v", i, oc.Deadline, want)
		}
	}

	// The original deadline passes: every renewed lease must survive it.
	clk.advance(2 * testTick)
	m.Tick()
	if got := m.Active(); got != 8 {
		t.Fatalf("Active after original deadline = %d, want 8 (renewal must cover every lease)", got)
	}
	// The renewed deadline passes: all gone.
	clk.advance(4 * testTick)
	m.Tick()
	if got := m.Active(); got != 0 {
		t.Fatalf("Active after renewed deadline = %d, want 0", got)
	}
}

func TestRenewAllPerItemFencing(t *testing.T) {
	m, _ := newTestManager(t, 16)
	ttl := 5 * testTick
	leases, err := m.AcquireN(3, ttl, nil)
	if err != nil || len(leases) != 3 {
		t.Fatalf("AcquireN: %d, %v", len(leases), err)
	}
	refs := []Ref{
		{Name: leases[0].Name, Token: leases[0].Token},     // good
		{Name: leases[1].Name, Token: leases[1].Token + 1}, // stale token
		{Name: m.Size() + 5, Token: 1},                     // outside the namespace
		{Name: leases[2].Name, Token: leases[2].Token},     // good
	}
	outcomes, err := m.RenewAll(refs, ttl, nil)
	if err != nil {
		t.Fatalf("RenewAll: %v", err)
	}
	if len(outcomes) != 4 {
		t.Fatalf("outcomes %d, want 4", len(outcomes))
	}
	if outcomes[0].Err != nil || outcomes[3].Err != nil {
		t.Fatalf("good refs failed: %v, %v", outcomes[0].Err, outcomes[3].Err)
	}
	if !errors.Is(outcomes[1].Err, ErrStaleToken) {
		t.Fatalf("stale token outcome = %v, want ErrStaleToken", outcomes[1].Err)
	}
	if !errors.Is(outcomes[2].Err, ErrNotLeased) {
		t.Fatalf("out-of-range outcome = %v, want ErrNotLeased", outcomes[2].Err)
	}
}

func TestBatchOpsOnClosedManager(t *testing.T) {
	m, _ := newTestManager(t, 8)
	m.Close()
	if _, err := m.AcquireN(4, 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("AcquireN after Close = %v, want ErrClosed", err)
	}
	if _, err := m.RenewAll([]Ref{{Name: 0, Token: 1}}, 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("RenewAll after Close = %v, want ErrClosed", err)
	}
}
