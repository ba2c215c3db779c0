package core

import (
	"testing"

	"repro/internal/membership"
	"repro/internal/pbcast"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/wire"
)

// fuzzConfigs are the engine configurations FuzzEngineHandle drives: the
// paper's defaults, a pull-based one with retransmission and the Weighted
// policy, and one with the compact digest and a prioritary member.
func fuzzConfigs() []Config {
	def := DefaultConfig()

	pull := DefaultConfig()
	pull.Retransmit = true
	pull.RetransmitTimeout = 2
	pull.MaxRetransmitPerGossip = 4
	pull.WeightedEventEviction = true
	pull.Membership.Policy = membership.Weighted

	compact := DefaultConfig()
	compact.DigestMode = CompactDigest
	compact.AssumeFromDigest = true
	compact.Membership.Prioritary = []proto.ProcessID{2}
	return []Config{def, pull, compact}
}

// fuzzSeeds are well-formed frames of every message kind, with membership
// lists past their ingress bounds.
func fuzzSeeds() []proto.Message {
	subs := make([]proto.ProcessID, 40)
	for i := range subs {
		subs[i] = proto.ProcessID(i % 25)
	}
	unsubs := make([]proto.Unsubscription, 20)
	for i := range unsubs {
		unsubs[i] = proto.Unsubscription{Process: proto.ProcessID(3 + i%7), Stamp: uint64(i)}
	}
	ev := proto.Event{ID: proto.EventID{Origin: 9, Seq: 4}, Payload: []byte("payload")}
	return []proto.Message{
		{Kind: proto.GossipMsg, From: 5, To: 1, Gossip: &proto.Gossip{
			From:   5,
			Events: []proto.Event{ev, {ID: proto.EventID{Origin: 9, Seq: 5}}},
			Subs:   subs,
			Unsubs: unsubs,
			Digest: []proto.EventID{{Origin: 9, Seq: 1}, {Origin: 9, Seq: 7}, {Origin: 1, Seq: 3}},
		}},
		{Kind: proto.SubscribeMsg, From: 6, To: 1, Subscriber: 6},
		{Kind: proto.RetransmitRequestMsg, From: 7, To: 1, Request: []proto.EventID{{Origin: 1, Seq: 1}}},
		{Kind: proto.RetransmitReplyMsg, From: 8, To: 1, Reply: []proto.Event{ev}, ReplyHops: []uint32{2}},
	}
}

// FuzzEngineHandle feeds arbitrary bytes through the codec into the
// protocol engines — core.Engine under several configurations, and
// pbcast.Node over the same membership layer — followed by a gossip
// round, and checks that no input panics or pushes a bounded buffer past
// its configured bound.
func FuzzEngineHandle(f *testing.F) {
	for _, m := range fuzzSeeds() {
		buf, err := wire.Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	peers := []proto.ProcessID{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := wire.Decode(data)
		if err != nil {
			return
		}
		for ci, cfg := range fuzzConfigs() {
			e, err := New(1, cfg, nil, rng.New(uint64(ci)+1))
			if err != nil {
				t.Fatal(err)
			}
			e.Seed(peers)
			e.Publish([]byte("own"))
			var out []proto.Message
			for now := uint64(1); now <= 3; now++ {
				out = e.HandleMessageAppend(m, now, out[:0])
				checkEngineBounds(t, ci, "handle", e, cfg)
				out = e.TickAppend(now, out[:0])
				checkEngineBounds(t, ci, "tick", e, cfg)
			}
		}

		pcfg := pbcast.DefaultConfig()
		n, err := pbcast.New(1, pcfg, nil, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		n.Seed(peers)
		n.Publish([]byte("own"))
		var out []proto.Message
		for now := uint64(1); now <= 3; now++ {
			out = n.HandleMessageAppend(m, now, out[:0])
			out = n.TickAppend(now, out[:0])
			if n.ViewLen() > pcfg.Membership.MaxView {
				t.Fatalf("pbcast: view holds %d, bound %d", n.ViewLen(), pcfg.Membership.MaxView)
			}
		}
	})
}

func checkEngineBounds(t *testing.T, ci int, phase string, e *Engine, cfg Config) {
	t.Helper()
	mc := cfg.Membership
	if got := e.ViewLen(); got > mc.MaxView {
		t.Fatalf("config %d after %s: view holds %d, bound %d", ci, phase, got, mc.MaxView)
	}
	if got := e.SubsLen(); got > mc.MaxSubs {
		t.Fatalf("config %d after %s: subs holds %d, bound %d", ci, phase, got, mc.MaxSubs)
	}
	if got := e.UnsubsLen(); got > mc.MaxUnsubs {
		t.Fatalf("config %d after %s: unsubs holds %d, bound %d", ci, phase, got, mc.MaxUnsubs)
	}
	if got := e.PendingEvents(); got > cfg.MaxEvents {
		t.Fatalf("config %d after %s: events holds %d, bound %d", ci, phase, got, cfg.MaxEvents)
	}
	if cfg.DigestMode == FlatDigest {
		if got := e.DigestLen(); got > cfg.MaxEventIDs {
			t.Fatalf("config %d after %s: eventIds holds %d, bound %d", ci, phase, got, cfg.MaxEventIDs)
		}
	}
}
