package membership

import (
	"testing"

	"repro/internal/proto"
	"repro/internal/rng"
)

// hugeList is the length of the subs list one 64 KiB datagram can carry.
const hugeList = 27338

// drawsBetween counts the Uint64 draws that moved a SplitMix64 stream from
// state a to state b: each draw adds the odd golden increment, so the
// count is (b-a) times its inverse mod 2^64.
func drawsBetween(a, b uint64) uint64 {
	const golden = 0x9e3779b97f4a7c15
	inv := uint64(golden) // Newton: each step doubles the correct low bits
	for i := 0; i < 5; i++ {
		inv *= 2 - golden*inv
	}
	return (b - a) * inv
}

func TestDrawsBetween(t *testing.T) {
	t.Parallel()
	r := rng.New(42)
	a := r.State()
	for i := 0; i < 1234; i++ {
		r.Uint64()
	}
	if got := drawsBetween(a, r.State()); got != 1234 {
		t.Fatalf("drawsBetween = %d, want 1234", got)
	}
}

// fullManager returns a default-config manager whose view and subs
// buffer are both full.
func fullManager(t *testing.T) *Manager {
	t.Helper()
	m, err := NewManager(1, DefaultConfig(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		ps := make([]proto.ProcessID, m.cfg.MaxSubs+1)
		for j := range ps {
			ps[j] = proto.ProcessID(100 + 20*i + j)
		}
		m.ApplySubs(ps)
	}
	if m.ViewLen() != m.cfg.MaxView || m.SubsLen() != m.cfg.MaxSubs {
		t.Fatalf("view %d subs %d, want both full", m.ViewLen(), m.SubsLen())
	}
	return m
}

// TestHugeSubsListBoundedWork applies one datagram's worth of subs to a
// full default view and counts work instead of timing it: no allocation,
// and RNG draws bounded by the buffers, not by the list.
func TestHugeSubsListBoundedWork(t *testing.T) {
	m := fullManager(t)
	subs := make([]proto.ProcessID, hugeList)
	next := proto.ProcessID(1000)
	apply := func() {
		for i := range subs {
			subs[i] = next
			next++
		}
		before := m.RNGState()
		m.ApplySubs(subs)
		limit := uint64(2*(m.cfg.MaxView+m.cfg.MaxSubs) + 2)
		if n := drawsBetween(before, m.RNGState()); n > limit {
			t.Fatalf("ApplySubs of %d subs drew %d times, want <= %d", len(subs), n, limit)
		}
	}
	if allocs := testing.AllocsPerRun(20, apply); allocs != 0 {
		t.Fatalf("ApplySubs of %d subs cost %.1f allocs, want 0", len(subs), allocs)
	}
	if m.ViewLen() != m.cfg.MaxView || m.SubsLen() != m.cfg.MaxSubs {
		t.Fatalf("view %d subs %d, want both full", m.ViewLen(), m.SubsLen())
	}
}

// TestHugeUnsubsListBoundedWork is the unsubscription counterpart: one
// datagram's worth of fresh unsubscriptions applied to a full default
// view.
func TestHugeUnsubsListBoundedWork(t *testing.T) {
	m := fullManager(t)
	unsubs := make([]proto.Unsubscription, hugeList)
	next := proto.ProcessID(100)
	now := uint64(1)
	apply := func() {
		for i := range unsubs {
			unsubs[i] = proto.Unsubscription{Process: next, Stamp: now}
			next++
		}
		before := m.RNGState()
		m.ApplyUnsubs(unsubs, now)
		limit := uint64(m.cfg.MaxUnsubs + 2)
		if n := drawsBetween(before, m.RNGState()); n > limit {
			t.Fatalf("ApplyUnsubs of %d unsubs drew %d times, want <= %d", len(unsubs), n, limit)
		}
		now++
	}
	if allocs := testing.AllocsPerRun(20, apply); allocs != 0 {
		t.Fatalf("ApplyUnsubs of %d unsubs cost %.1f allocs, want 0", len(unsubs), allocs)
	}
	if got := m.UnsubsLen(); got > m.cfg.MaxUnsubs {
		t.Fatalf("unsubs buffer holds %d, want <= %d", got, m.cfg.MaxUnsubs)
	}
}
