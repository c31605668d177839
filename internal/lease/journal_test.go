package lease

import (
	"errors"
	"sort"
	"testing"
	"time"

	"github.com/levelarray/levelarray/internal/core"
	"github.com/levelarray/levelarray/internal/rng"
	"github.com/levelarray/levelarray/internal/shard"
	"github.com/levelarray/levelarray/internal/wal"
)

// newJournaledManager builds a manager over a LevelArray journaling into dir.
func newJournaledManager(t *testing.T, dir string, capacity int, clk *fakeClock) (*Manager, *wal.Store) {
	t.Helper()
	st, err := wal.Open(dir, wal.SyncNever, 0)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	arr := core.MustNew(core.Config{Capacity: capacity})
	m := MustNewManager(arr, Config{TickInterval: testTick, Clock: clk.now, Journal: st})
	return m, st
}

// liveState captures the comparable durable state of a manager: its active
// sessions (name, token, raw deadline) and its bitmap words.
func liveState(m *Manager) ([]Session, [][]uint64) {
	sessions, _ := m.Sessions(0, m.Size())
	var words [][]uint64
	for _, v := range m.views {
		words = append(words, v.space.SnapshotWords())
	}
	return sessions, words
}

func assertSameState(t *testing.T, want, got *Manager) {
	t.Helper()
	ws, ww := liveState(want)
	gs, gw := liveState(got)
	if len(ws) != len(gs) {
		t.Fatalf("restored %d sessions, want %d\nwant %+v\ngot  %+v", len(gs), len(ws), ws, gs)
	}
	for i := range ws {
		if ws[i].Name != gs[i].Name || ws[i].Token != gs[i].Token || !ws[i].Deadline.Equal(gs[i].Deadline) {
			t.Fatalf("session[%d] = %+v, want %+v", i, gs[i], ws[i])
		}
	}
	if len(ww) != len(gw) {
		t.Fatalf("view count: got %d want %d", len(gw), len(ww))
	}
	for i := range ww {
		if len(ww[i]) != len(gw[i]) {
			t.Fatalf("view %d word count: got %d want %d", i, len(gw[i]), len(ww[i]))
		}
		for j := range ww[i] {
			if ww[i][j] != gw[i][j] {
				t.Fatalf("view %d word %d: got %#x want %#x", i, j, gw[i][j], ww[i][j])
			}
		}
	}
	if want.Active() != got.Active() {
		t.Fatalf("Active: got %d want %d", got.Active(), want.Active())
	}
}

// crashRestore simulates a crash (no final checkpoint) and rebuilds a fresh
// manager from the same directory.
func crashRestore(t *testing.T, dir string, capacity int, clk *fakeClock, st *wal.Store) (*Manager, *wal.Store, RestoreStats) {
	t.Helper()
	_ = st.Close() // flush-only; a crash loses nothing the test wrote under SyncNever+same-FS read
	m2, st2 := newJournaledManager(t, dir, capacity, clk)
	stats, err := m2.Restore()
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	return m2, st2, stats
}

func TestJournalRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	m, st := newJournaledManager(t, dir, 64, clk)

	var leases []Lease
	for i := 0; i < 20; i++ {
		ttl := time.Duration(0)
		if i%3 != 0 {
			ttl = time.Duration(i+1) * 50 * time.Millisecond
		}
		l, err := m.Acquire(ttl)
		if err != nil {
			t.Fatalf("Acquire: %v", err)
		}
		leases = append(leases, l)
	}
	// Renew a few, release a few, expire a few.
	for i := 0; i < 6; i++ {
		if _, err := m.Renew(leases[i].Name, leases[i].Token, time.Second); err != nil {
			t.Fatalf("Renew: %v", err)
		}
	}
	for i := 6; i < 10; i++ {
		if err := m.Release(leases[i].Name, leases[i].Token); err != nil {
			t.Fatalf("Release: %v", err)
		}
	}
	clk.advance(120 * time.Millisecond) // expires the short-TTL tail
	m.Tick()

	m2, st2, stats := crashRestore(t, dir, 64, clk, st)
	defer st2.Close()
	assertSameState(t, m, m2)
	if stats.Sessions != m.Active() {
		t.Fatalf("RestoreStats.Sessions = %d, want %d", stats.Sessions, m.Active())
	}

	// Tokens minted after restore must exceed everything granted before.
	var maxTok uint64
	for _, l := range leases {
		if l.Token > maxTok {
			maxTok = l.Token
		}
	}
	l, err := m2.Acquire(0)
	if err != nil {
		t.Fatalf("post-restore Acquire: %v", err)
	}
	if l.Token <= maxTok {
		t.Fatalf("post-restore token %d not above pre-crash max %d", l.Token, maxTok)
	}
	if ob, mb := m2.Verify(); ob != nil || mb != nil {
		t.Fatalf("Verify after restore: orphans=%v missing=%v", ob, mb)
	}
}

func TestCheckpointThenCrashRestore(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	m, st := newJournaledManager(t, dir, 32, clk)

	var leases []Lease
	for i := 0; i < 10; i++ {
		l, err := m.Acquire(time.Minute)
		if err != nil {
			t.Fatalf("Acquire: %v", err)
		}
		leases = append(leases, l)
	}
	if err := m.Checkpoint(3, 7, false); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Post-checkpoint tail: one release, one renew, two fresh acquires.
	if err := m.Release(leases[0].Name, leases[0].Token); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if _, err := m.Renew(leases[1].Name, leases[1].Token, time.Hour); err != nil {
		t.Fatalf("Renew: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := m.Acquire(0); err != nil {
			t.Fatalf("Acquire: %v", err)
		}
	}

	m2, st2, stats := crashRestore(t, dir, 32, clk, st)
	defer st2.Close()
	assertSameState(t, m, m2)
	if stats.Records == 0 {
		t.Fatal("expected a post-checkpoint tail to be replayed")
	}
	snap, _ := st2.Recovered()
	if snap == nil || snap.Partition != 3 || snap.Epoch != 7 {
		t.Fatalf("snapshot meta = %+v", snap)
	}
}

func TestCleanShutdownRestoreSkipsTail(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	m, st := newJournaledManager(t, dir, 16, clk)
	for i := 0; i < 5; i++ {
		if _, err := m.Acquire(0); err != nil {
			t.Fatalf("Acquire: %v", err)
		}
	}
	if err := m.Checkpoint(0, 1, true); err != nil {
		t.Fatalf("clean Checkpoint: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2, err := wal.Open(dir, wal.SyncNever, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	snap, tail := st2.Recovered()
	if snap == nil || len(tail) != 0 {
		t.Fatalf("clean restore: snap=%v tail=%d, want snapshot and empty tail", snap, len(tail))
	}
	arr := core.MustNew(core.Config{Capacity: 16})
	m2 := MustNewManager(arr, Config{TickInterval: testTick, Clock: clk.now, Journal: st2})
	if _, err := m2.Restore(); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	assertSameState(t, m, m2)
}

func TestRestoreReapsLapsedDeadlines(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	m, st := newJournaledManager(t, dir, 16, clk)
	l, err := m.Acquire(30 * time.Millisecond)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	keep, err := m.Acquire(0)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}

	// The process "dies" and comes back long after the deadline.
	clk.advance(10 * time.Second)
	m2, st2, stats := crashRestore(t, dir, 16, clk, st)
	defer st2.Close()
	if stats.Sessions != 2 || stats.Expired != 1 {
		t.Fatalf("stats = %+v, want 2 sessions, 1 already-lapsed", stats)
	}
	clk.advance(2 * testTick)
	m2.Tick()
	if got := m2.Active(); got != 1 {
		t.Fatalf("Active after restore+tick = %d, want 1 (lapsed lease reaped)", got)
	}
	if _, err := m2.Renew(l.Name, l.Token, time.Second); !errors.Is(err, ErrNotLeased) && !errors.Is(err, ErrStaleToken) {
		t.Fatalf("renew of lapsed lease after restore = %v, want fenced", err)
	}
	if _, err := m2.Renew(keep.Name, keep.Token, time.Second); err != nil {
		t.Fatalf("renew of surviving lease: %v", err)
	}
	if ob, mb := m2.Verify(); ob != nil || mb != nil {
		t.Fatalf("Verify: orphans=%v missing=%v", ob, mb)
	}
}

func TestRestoreShardedArray(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	st, err := wal.Open(dir, wal.SyncNever, 0)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	arr, err := shard.New(shard.Config{Shards: 4, Capacity: 64, Seed: 1})
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	m := MustNewManager(arr, Config{TickInterval: testTick, Clock: clk.now, Journal: st})
	var leases []Lease
	for i := 0; i < 40; i++ {
		l, err := m.Acquire(0)
		if err != nil {
			t.Fatalf("Acquire: %v", err)
		}
		leases = append(leases, l)
	}
	for i := 0; i < 10; i++ {
		if err := m.Release(leases[i].Name, leases[i].Token); err != nil {
			t.Fatalf("Release: %v", err)
		}
	}

	_ = st.Close()
	st2, err := wal.Open(dir, wal.SyncNever, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	arr2, err := shard.New(shard.Config{Shards: 4, Capacity: 64, Seed: 1})
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	m2 := MustNewManager(arr2, Config{TickInterval: testTick, Clock: clk.now, Journal: st2})
	if _, err := m2.Restore(); err != nil {
		t.Fatalf("Restore over sharded array: %v", err)
	}
	assertSameState(t, m, m2)
}

func TestBatchOpsJournalAndRestore(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	m, st := newJournaledManager(t, dir, 64, clk)
	granted, err := m.AcquireN(16, time.Minute, nil)
	if err != nil {
		t.Fatalf("AcquireN: %v", err)
	}
	refs := make([]Ref, 0, len(granted))
	for _, l := range granted[:8] {
		refs = append(refs, Ref{Name: l.Name, Token: l.Token})
	}
	if _, err := m.RenewAll(refs, time.Hour, nil); err != nil {
		t.Fatalf("RenewAll: %v", err)
	}

	m2, st2, _ := crashRestore(t, dir, 64, clk, st)
	defer st2.Close()
	assertSameState(t, m, m2)
}

// failingJournal errors every call after the first failAfter appends.
type failingJournal struct {
	appends   int
	failAfter int
}

var errJournalDown = errors.New("journal down")

func (f *failingJournal) Append(op wal.Op, name uint32, token uint64, deadline int64) error {
	f.appends++
	if f.appends > f.failAfter {
		return errJournalDown
	}
	return nil
}

func (f *failingJournal) AppendBatch(recs []wal.Record) error {
	f.appends += len(recs)
	if f.appends > f.failAfter {
		return errJournalDown
	}
	return nil
}

func (f *failingJournal) BeginCheckpoint() (uint64, error)         { return 0, errJournalDown }
func (f *failingJournal) CompleteCheckpoint(s *wal.Snapshot) error { return errJournalDown }
func (f *failingJournal) Recovered() (*wal.Snapshot, []wal.Record) { return nil, nil }

func TestJournalFailureRollsBackGrant(t *testing.T) {
	arr := core.MustNew(core.Config{Capacity: 8})
	clk := newFakeClock()
	fj := &failingJournal{failAfter: 1}
	m := MustNewManager(arr, Config{TickInterval: testTick, Clock: clk.now, Journal: fj})
	if _, err := m.Acquire(0); err != nil {
		t.Fatalf("first Acquire (journal up): %v", err)
	}
	if _, err := m.Acquire(0); !errors.Is(err, errJournalDown) {
		t.Fatalf("Acquire with journal down = %v, want errJournalDown", err)
	}
	if got := m.Active(); got != 1 {
		t.Fatalf("Active after rolled-back grant = %d, want 1", got)
	}
	if ob, mb := m.Verify(); ob != nil || mb != nil {
		t.Fatalf("rolled-back grant leaked a bit: orphans=%v missing=%v", ob, mb)
	}
	// Batch path: everything granted before the append failure is rolled back.
	if _, err := m.AcquireN(4, 0, nil); !errors.Is(err, errJournalDown) {
		t.Fatalf("AcquireN with journal down = %v, want errJournalDown", err)
	}
	if got := m.Active(); got != 1 {
		t.Fatalf("Active after rolled-back batch = %d, want 1", got)
	}
	if ob, mb := m.Verify(); ob != nil || mb != nil {
		t.Fatalf("rolled-back batch leaked bits: orphans=%v missing=%v", ob, mb)
	}
}

// TestReplayEquivalenceCutAtEveryBoundary drives a random op sequence
// against a journaled manager while mirroring it in a model, then replays
// the journal cut at every record boundary and asserts the folded state
// matches the model at that cut — the satellite-3 property test.
func TestReplayEquivalenceCutAtEveryBoundary(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	m, st := newJournaledManager(t, dir, 32, clk)

	type modelLease struct {
		token    uint64
		deadline int64
	}
	// model[k] is the expected session table after k journal records.
	model := []map[uint32]modelLease{{}}
	cur := map[uint32]modelLease{}
	snapshotModel := func() {
		cp := make(map[uint32]modelLease, len(cur))
		for k, v := range cur {
			cp[k] = v
		}
		model = append(model, cp)
	}

	r := rng.NewSplitMix64(42)
	var held []Lease
	for op := 0; op < 200; op++ {
		switch {
		case len(held) == 0 || r.Uint64()%3 == 0:
			ttl := time.Duration(r.Uint64()%1000+1) * time.Millisecond
			l, err := m.Acquire(ttl)
			if err != nil {
				continue
			}
			held = append(held, l)
			cur[uint32(l.Name)] = modelLease{token: l.Token, deadline: l.Deadline.UnixNano()}
			snapshotModel()
		case r.Uint64()%2 == 0:
			i := int(r.Uint64() % uint64(len(held)))
			l := held[i]
			nl, err := m.Renew(l.Name, l.Token, time.Duration(r.Uint64()%1000+1)*time.Millisecond)
			if err != nil {
				t.Fatalf("Renew: %v", err)
			}
			held[i] = nl
			cur[uint32(l.Name)] = modelLease{token: l.Token, deadline: nl.Deadline.UnixNano()}
			snapshotModel()
		default:
			i := int(r.Uint64() % uint64(len(held)))
			l := held[i]
			if err := m.Release(l.Name, l.Token); err != nil {
				t.Fatalf("Release: %v", err)
			}
			held = append(held[:i], held[i+1:]...)
			delete(cur, uint32(l.Name))
			snapshotModel()
		}
	}
	_ = st.Close()

	// Replay the log cut at every record boundary: cut k must equal model[k].
	snap, tail := func() (*wal.Snapshot, []wal.Record) {
		st2, err := wal.Open(dir, wal.SyncNever, 0)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer st2.Close()
		s, rec := st2.Recovered()
		out := make([]wal.Record, len(rec))
		copy(out, rec)
		return s, out
	}()
	if snap != nil {
		t.Fatalf("no checkpoint was taken; snapshot should be nil")
	}
	if len(tail)+1 != len(model) {
		t.Fatalf("journal has %d records, model has %d states", len(tail), len(model)-1)
	}
	for k := 0; k <= len(tail); k++ {
		sessions, _ := wal.Fold(nil, tail[:k])
		want := model[k]
		if len(sessions) != len(want) {
			t.Fatalf("cut %d: replayed %d sessions, want %d", k, len(sessions), len(want))
		}
		sort.Slice(sessions, func(i, j int) bool { return sessions[i].Name < sessions[j].Name })
		for _, s := range sessions {
			w, ok := want[s.Name]
			if !ok {
				t.Fatalf("cut %d: replay holds name %d, model does not", k, s.Name)
			}
			if w.token != s.Token || w.deadline != s.Deadline {
				t.Fatalf("cut %d name %d: replay (tok %d dl %d) vs model (tok %d dl %d)",
					k, s.Name, s.Token, s.Deadline, w.token, w.deadline)
			}
		}
	}
}
