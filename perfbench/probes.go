package main

import (
	"net"
	"runtime"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/membership"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Layer probes time one layer's public functions on probe objects built
// with the workload's configuration and filled to its occupancy. Each
// returns nanoseconds per call, the median over groups of calls, so one
// preempted group does not move it.

// perCall runs f(0..n-1) in groups of group calls and returns the median
// ns per call over the groups.
func perCall(n, group int, f func(i int)) float64 {
	var per []float64
	for i := 0; i < n; {
		start := time.Now()
		end := min(i+group, n)
		for ; i < end; i++ {
			f(i)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(group))
	}
	return median(per)
}

// allocsPerCall returns heap allocations per call of f over n calls.
func allocsPerCall(n int, f func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// fullView returns l distinct peer ids, none equal to self.
func fullView(self proto.ProcessID, l int) []proto.ProcessID {
	out := make([]proto.ProcessID, 0, l)
	for p := proto.ProcessID(1); len(out) < l; p++ {
		if p != self {
			out = append(out, p)
		}
	}
	return out
}

// probeMembership times ApplySubs of the workload's own subs lists onto a
// full view, and AppendTargets(F) on that view.
func probeMembership(cfg membership.Config, fanout int, subs [][]proto.ProcessID) (applyUs, targetsNs float64) {
	const self = proto.ProcessID(1 << 40)
	m, err := membership.NewManager(self, cfg, rng.New(7))
	if err != nil || len(subs) == 0 {
		return 0, 0
	}
	m.Seed(fullView(self, cfg.MaxView))
	n := max(4*len(subs), 4000)
	applyUs = perCall(n, 100, func(i int) { m.ApplySubs(subs[i%len(subs)]) }) / 1e3
	var dst []proto.ProcessID
	targetsNs = perCall(100000, 1000, func(int) { dst = m.AppendTargets(dst[:0], fanout) })
	return applyUs, targetsNs
}

// oversizedGossip encodes the gossip with the longest subs list that still
// fits one datagram, and returns the datagram and the list's length.
func oversizedGossip() ([]byte, int) {
	encode := func(k int) []byte {
		subs := make([]proto.ProcessID, k)
		for i := range subs {
			subs[i] = proto.ProcessID(i + 2)
		}
		b, err := wire.Encode(proto.Message{Kind: proto.GossipMsg, From: 2, To: 1,
			Gossip: &proto.Gossip{From: 2, Subs: subs}})
		if err != nil {
			return nil
		}
		return b
	}
	const limit = 64*1024 - 16 // the UDP transport's datagram budget
	lo, hi := 1, 1<<16
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if b := encode(mid); b != nil && len(b) <= limit {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return encode(lo), lo
}

// probeOversized decodes the largest one-datagram subs list and applies it
// to a full view: the adversarial input a single peer can send.
func probeOversized(r *run, cfg membership.Config) (applyMs, decodeUs float64) {
	dgram, k := oversizedGossip()
	r.notef("oversized input: %d subs in one %d-byte datagram", k, len(dgram))
	var msg proto.Message
	decodeUs = perCall(20, 1, func(int) { msg, _ = wire.Decode(dgram) }) / 1e3
	if msg.Gossip == nil {
		return 0, decodeUs
	}
	const self = proto.ProcessID(1 << 40)
	m, err := membership.NewManager(self, cfg, rng.New(7))
	if err != nil {
		return 0, decodeUs
	}
	m.Seed(fullView(self, cfg.MaxView))
	start := time.Now()
	m.ApplySubs(msg.Gossip.Subs)
	return ms(time.Since(start)), decodeUs
}

// probeEngine replays msgs through a standalone engine seeded with view,
// ticking once every perTick messages and advancing now by step per tick.
// The first pass fills the engine's buffers; the rest are timed.
func probeEngine(cfg core.Config, view []proto.ProcessID, msgs []proto.Message, perTick int, step uint64) (handleUs, tickUs float64) {
	const self = proto.ProcessID(1 << 40)
	if len(msgs) == 0 {
		return 0, 0
	}
	e, err := core.New(self, cfg, nil, rng.New(11))
	if err != nil {
		return 0, 0
	}
	e.SetEmissionReuse(true)
	e.Seed(view)
	var out []proto.Message
	now := uint64(1)
	for i, m := range msgs {
		out = e.HandleMessageAppend(m, now, out[:0])
		if i%perTick == perTick-1 {
			now += step
			out = e.TickAppend(now, out[:0])
		}
	}
	var handle, tick []float64
	for pass := 0; pass < 3; pass++ {
		for i, m := range msgs {
			start := time.Now()
			out = e.HandleMessageAppend(m, now, out[:0])
			handle = append(handle, float64(time.Since(start).Nanoseconds()))
			if i%perTick == perTick-1 {
				now += step
				start = time.Now()
				out = e.TickAppend(now, out[:0])
				tick = append(tick, float64(time.Since(start).Nanoseconds()))
			}
		}
	}
	return median(handle) / 1e3, median(tick) / 1e3
}

// probeDigest times CompactDigest.Contains on a digest holding ids,
// querying known and unknown ids alternately.
func probeDigest(ids []proto.EventID) float64 {
	if len(ids) == 0 {
		return 0
	}
	d := buffer.NewCompactDigest()
	for _, id := range ids {
		d.Add(id)
	}
	q := make([]proto.EventID, 0, 2*len(ids))
	for _, id := range ids {
		q = append(q, id, proto.EventID{Origin: id.Origin, Seq: id.Seq + 1<<30})
	}
	hits := 0
	ns := perCall(max(len(q), 200000), 1000, func(i int) {
		if d.Contains(q[i%len(q)]) {
			hits++
		}
	})
	sink += hits
	return ns
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// probeArchive times Archive.Store on a full archive of the given size.
func probeArchive(size int) (storeNs, allocs float64) {
	if size <= 0 {
		return 0, 0
	}
	a := buffer.NewArchive(size)
	seq := uint64(0)
	store := func(int) {
		seq++
		a.Store(proto.Event{ID: proto.EventID{Origin: 2, Seq: seq}})
	}
	for i := 0; i < size; i++ {
		store(i)
	}
	storeNs = perCall(100000, 1000, store)
	return storeNs, allocsPerCall(10000, store)
}

// probeSample times rng.SampleAppend(l, F), the fanout target draw.
func probeSample(l, f int) float64 {
	r := rng.New(3)
	var dst []int
	return perCall(200000, 1000, func(int) { dst = r.SampleAppend(dst[:0], l, f) })
}

// probeWheel times Schedule and PopAt on a wheel holding timers pending
// timers spread over one gossip period plus the delay range, rescheduling
// each popped timer one period later, as periodic ticks are.
func probeWheel(timers int, periodMs, spanMs uint64) (scheduleNs, popNs float64) {
	w := event.NewWheel()
	r := rng.New(5)
	for i := 0; i < timers; i++ {
		w.Schedule(1+uint64(r.Intn(int(periodMs+spanMs))), 0, uint32(i))
	}
	var sched, pop []float64
	for len(pop) < 2000 {
		t, ok := w.Next()
		if !ok {
			break
		}
		start := time.Now()
		due := w.PopAt(t)
		n := len(due)
		pop = append(pop, float64(time.Since(start).Nanoseconds())/float64(max(n, 1)))
		refs := make([]uint32, n)
		for i, tm := range due {
			refs[i] = tm.Ref
		}
		start = time.Now()
		for _, ref := range refs {
			w.Schedule(t+periodMs, 0, ref)
		}
		if n > 0 {
			sched = append(sched, float64(time.Since(start).Nanoseconds())/float64(n))
		}
	}
	return median(sched), median(pop)
}

// probeDecode times wire.Decode over datagrams.
func probeDecode(dgrams [][]byte) float64 {
	if len(dgrams) == 0 {
		return 0
	}
	return perCall(max(len(dgrams), 20000), 100, func(i int) {
		if _, err := wire.Decode(dgrams[i%len(dgrams)]); err == nil {
			sink++
		}
	}) / 1e3
}

// probeEncode times wire.Encode over msgs.
func probeEncode(msgs []proto.Message) float64 {
	if len(msgs) == 0 {
		return 0
	}
	return perCall(max(len(msgs), 20000), 100, func(i int) {
		if b, err := wire.Encode(msgs[i%len(msgs)]); err == nil {
			sink += len(b)
		}
	}) / 1e3
}

// probeSendBatch times UDP.SendBatch of batch from a fresh transport to a
// socket that never reads; loopback discards what overflows its buffer.
func probeSendBatch(batch []proto.Message) (us, allocs float64, err error) {
	if len(batch) == 0 {
		return 0, 0, nil
	}
	sinkConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, 0, err
	}
	defer sinkConn.Close()
	src, err := transport.NewUDP(1, "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer src.Close()
	msgs := append([]proto.Message(nil), batch...)
	for i := range msgs {
		msgs[i].From = 1
		if err := src.AddPeer(msgs[i].To, sinkConn.LocalAddr().String()); err != nil {
			return 0, 0, err
		}
	}
	send := func(int) { _ = src.SendBatch(msgs) }
	us = perCall(4000, 100, send) / 1e3
	return us, allocsPerCall(1000, send), nil
}
