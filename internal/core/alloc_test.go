package core

import (
	"testing"

	"repro/internal/proto"
	"repro/internal/rng"
)

// allocEngine builds an engine with a warmed-up view of l members.
func allocEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	e, err := New(1, cfg, nil, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	var seeds []proto.ProcessID
	for p := proto.ProcessID(2); int(p) <= cfg.Membership.MaxView+1; p++ {
		seeds = append(seeds, p)
	}
	e.Seed(seeds)
	return e
}

// tickAllocs measures steady-state allocations of one TickAppend call into
// a reused, pre-grown buffer.
func tickAllocs(t testing.TB, fanout int) float64 {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Fanout = fanout
	e := allocEngine(t, cfg)
	buf := make([]proto.Message, 0, 64)
	now := uint64(0)
	return testing.AllocsPerRun(200, func() {
		now++
		buf = e.TickAppend(now, buf[:0])
	})
}

// TestTickAppendNoAllocPerMessage is the hot-path regression gate: the
// cost of TickAppend is a small constant independent of the fanout — the
// F messages of a round share one gossip, so emitting more messages must
// not allocate more.
func TestTickAppendNoAllocPerMessage(t *testing.T) {
	low := tickAllocs(t, 2)
	high := tickAllocs(t, 10)
	if high > low {
		t.Errorf("TickAppend allocates per message: %v allocs at F=2 vs %v at F=10", low, high)
	}
	if low > 8 {
		t.Errorf("TickAppend costs %v allocs per round; want a small constant", low)
	}
}

// TestHandleMessageAppendZeroAllocDuplicate: receiving a gossip whose
// events and digest identifiers are all already known — the dominant case
// in a converged system — must not allocate at all.
func TestHandleMessageAppendZeroAllocDuplicate(t *testing.T) {
	cfg := DefaultConfig()
	e := allocEngine(t, cfg)
	ev := proto.Event{ID: proto.EventID{Origin: 2, Seq: 1}}
	e.HandleMessage(proto.Message{
		Kind:   proto.GossipMsg,
		From:   2,
		To:     1,
		Gossip: &proto.Gossip{From: 2, Events: []proto.Event{ev}},
	}, 1)
	if !e.Knows(ev.ID) {
		t.Fatal("setup: event not delivered")
	}
	// Steady state: sender already in view, event and digest id known.
	dup := proto.Message{
		Kind: proto.GossipMsg,
		From: 2,
		To:   1,
		Gossip: &proto.Gossip{
			From:   2,
			Subs:   []proto.ProcessID{2},
			Events: []proto.Event{ev},
			Digest: []proto.EventID{ev.ID},
		},
	}
	var out []proto.Message
	allocs := testing.AllocsPerRun(200, func() {
		out = e.HandleMessageAppend(dup, 2, out[:0])
	})
	if allocs != 0 {
		t.Errorf("duplicate-gossip HandleMessageAppend allocates %v times per call, want 0", allocs)
	}
	if len(out) != 0 {
		t.Errorf("duplicate gossip produced %d responses", len(out))
	}
}

// TestCompactTickAppendZeroAlloc: with emission reuse, a compact-digest
// engine's steady TickAppend appends its watermarks and sparse ids straight
// from the origin table, ascending by origin and sequence number, without
// allocating.
func TestCompactTickAppendZeroAlloc(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DigestMode = CompactDigest
	e := allocEngine(t, cfg)
	e.SetEmissionReuse(true)
	var evs []proto.Event
	for o := proto.ProcessID(40); o >= 2; o-- {
		for _, seq := range []uint64{1, 2, 9, 5} {
			evs = append(evs, proto.Event{ID: proto.EventID{Origin: o, Seq: seq}})
		}
	}
	e.HandleMessage(proto.Message{Kind: proto.GossipMsg, From: 2, To: 1, Gossip: &proto.Gossip{From: 2, Events: evs}}, 1)
	buf := make([]proto.Message, 0, 64)
	now := uint64(1)
	buf = e.TickAppend(now, buf[:0])
	if len(buf) == 0 {
		t.Fatal("setup: no gossip emitted")
	}
	g := buf[0].Gossip
	if len(g.DigestWatermarks) != 39 || len(g.Digest) != 78 {
		t.Fatalf("emitted %d watermarks and %d sparse ids, want 39 and 78", len(g.DigestWatermarks), len(g.Digest))
	}
	for i := 1; i < len(g.Digest); i++ {
		if a, b := g.Digest[i-1], g.Digest[i]; a.Origin > b.Origin || a.Origin == b.Origin && a.Seq >= b.Seq {
			t.Fatalf("digest out of order at %d: %v then %v", i, a, b)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		now++
		buf = e.TickAppend(now, buf[:0])
	})
	if allocs != 0 {
		t.Errorf("compact-digest TickAppend allocates %v times per round, want 0", allocs)
	}
}

// TestTickCompatWrapperClones pins the compatibility contract: Tick must
// hand every target an independent deep copy, unlike TickAppend's shared
// gossip.
func TestTickCompatWrapperClones(t *testing.T) {
	e := allocEngine(t, DefaultConfig())
	msgs := e.Tick(1)
	if len(msgs) < 2 {
		t.Fatalf("got %d messages, want >= 2", len(msgs))
	}
	for i := 1; i < len(msgs); i++ {
		if msgs[i].Gossip == msgs[0].Gossip {
			t.Fatal("Tick messages share a gossip; the wrapper must clone")
		}
	}

	e2 := allocEngine(t, DefaultConfig())
	shared := e2.TickAppend(1, nil)
	if len(shared) < 2 {
		t.Fatalf("got %d messages, want >= 2", len(shared))
	}
	for i := 1; i < len(shared); i++ {
		if shared[i].Gossip != shared[0].Gossip {
			t.Fatal("TickAppend messages do not share the round's gossip")
		}
	}
}
