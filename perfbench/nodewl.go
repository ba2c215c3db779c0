package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	lpbcast "repro"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/wire"
)

const (
	ingestNode     = proto.ProcessID(1)
	ingestPeers    = 64   // synthetic peers, ids 2..65, all on the generator's socket
	ingestRate     = 4000 // offered datagrams per second
	ingestPerBatch = ingestRate / 1000
	ingestInterval = 10 * time.Millisecond // the node's gossip period
	ingestPayload  = 64
	ingestDigest   = 30
	ingestSubs     = 16 // |subs|m + 1: the most a correct peer sends
	ingestWarm     = 200
	// ingestDeadline is how long after its due time an event may take to
	// be delivered before it counts as failed.
	ingestDeadline = time.Second
	// burstGap separates the node's gossip bursts as the peers see them:
	// one round's datagrams leave within microseconds of each other.
	burstGap = 3 * time.Millisecond
	// outSamples is how many node output datagrams are kept for the
	// encode and send-path probes.
	outSamples = 64
	// ingestCPUWindow is the number of 1 ms batches per CPU-measuring
	// window.
	ingestCPUWindow = 100
)

// ingestLoad is the pre-encoded open-loop input: datagram i carries one
// gossip with event i, whose payload starts with i.
type ingestLoad struct {
	buf  []byte
	offs []int
	// byOrigin[p][s-1] is the index of the event with sequence number s
	// from synthetic peer p+2.
	byOrigin [ingestPeers][]int32
}

func (l *ingestLoad) datagram(i int) []byte { return l.buf[l.offs[i]:l.offs[i+1]] }
func (l *ingestLoad) len() int              { return len(l.offs) - 1 }

// bytes is the heap the generator's own data holds.
func (l *ingestLoad) bytes() uint64 {
	n := cap(l.buf) + 8*cap(l.offs)
	for _, idx := range l.byOrigin {
		n += 4 * cap(idx)
	}
	return uint64(n)
}

// index returns the index of the event with the given id.
func (l *ingestLoad) index(id proto.EventID) (int, bool) {
	p := int(id.Origin) - 2
	if p < 0 || p >= ingestPeers || id.Seq == 0 || id.Seq > uint64(len(l.byOrigin[p])) {
		return 0, false
	}
	return int(l.byOrigin[p][id.Seq-1]), true
}

// fillPayload writes event i's payload: its index, then bytes derived from
// it, so a delivery can be checked against what was sent.
func fillPayload(p []byte, i int) {
	binary.LittleEndian.PutUint64(p, uint64(i))
	for j := 8; j < len(p); j++ {
		p[j] = byte(i*131 + j*7)
	}
}

// buildIngestLoad encodes n gossips from seeded synthetic peers. Each
// carries one fresh event, the ids of the 30 events before it as digest,
// and the sender plus 15 other peers as subs.
func buildIngestLoad(seed uint64, n int) (*ingestLoad, error) {
	src := rng.New(seed ^ 0x1e57)
	ids := make([]proto.EventID, 0, n)
	l := &ingestLoad{offs: make([]int, 1, n+1)}
	var pick []int
	payload := make([]byte, ingestPayload)
	for i := 0; i < n; i++ {
		p := src.Intn(ingestPeers)
		from := proto.ProcessID(p + 2)
		l.byOrigin[p] = append(l.byOrigin[p], int32(i))
		id := proto.EventID{Origin: from, Seq: uint64(len(l.byOrigin[p]))}
		subs := []proto.ProcessID{from}
		pick = src.SampleAppend(pick[:0], ingestPeers-1, ingestSubs-1)
		for _, q := range pick {
			if q >= p {
				q++
			}
			subs = append(subs, proto.ProcessID(q+2))
		}
		digest := ids[max(0, len(ids)-ingestDigest):]
		fillPayload(payload, i)
		frame, err := wire.Encode(proto.Message{
			Kind: proto.GossipMsg, From: from, To: ingestNode,
			Gossip: &proto.Gossip{
				From:   from,
				Subs:   subs,
				Events: []proto.Event{{ID: id, Payload: payload}},
				Digest: digest,
			},
		})
		if err != nil {
			return nil, err
		}
		l.buf = append(l.buf, frame...)
		l.offs = append(l.offs, len(l.buf))
		ids = append(ids, id)
	}
	return l, nil
}

// ingestRig is one live node on loopback and the generator's socket.
type ingestRig struct {
	load *ingestLoad
	conn *net.UDPConn // the generator: sends the load, drains node output
	to   *net.UDPAddr
	tr   *lpbcast.UDPTransport
	node *lpbcast.Node

	base      time.Time
	deliverAt []int64 // ns after base; written by the node's handler
	delivered atomic.Int64
	badPay    atomic.Int64
	dupes     atomic.Int64
	resent    atomic.Int64 // events sent again on the node's request

	drain sync.WaitGroup
	// Written by the drain goroutine: the start of each gossip burst and
	// copies of the node's first output datagrams.
	bursts    []time.Time
	outSample [][]byte
}

func newIngestRig(seed uint64, seconds time.Duration) (*ingestRig, error) {
	n := ingestWarm + int(seconds/time.Millisecond)*ingestPerBatch
	load, err := buildIngestLoad(seed, n)
	if err != nil {
		return nil, err
	}
	g := &ingestRig{load: load, base: time.Now(), deliverAt: make([]int64, n)}
	g.conn, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	g.tr, err = lpbcast.NewUDPTransport(ingestNode, "127.0.0.1:0")
	if err != nil {
		g.conn.Close()
		return nil, err
	}
	g.to, err = net.ResolveUDPAddr("udp", g.tr.LocalAddr())
	if err == nil {
		peers := make([]proto.ProcessID, ingestPeers)
		for i := range peers {
			peers[i] = proto.ProcessID(i + 2)
			if err = g.tr.AddPeer(peers[i], g.conn.LocalAddr().String()); err != nil {
				break
			}
		}
		if err == nil {
			g.node, err = lpbcast.NewNode(ingestNode, g.tr,
				lpbcast.WithGossipInterval(ingestInterval),
				lpbcast.WithRNGSeed(seed),
				lpbcast.WithSeeds(peers...),
				lpbcast.WithDeliveryHandler(g.onDeliver))
		}
	}
	if err != nil {
		g.tr.Close()
		g.conn.Close()
		return nil, err
	}
	g.drain.Add(1)
	go g.drainLoop()
	g.node.Start()
	// Closed-loop warm-up: each datagram waits for its delivery.
	for i := 0; i < ingestWarm; i++ {
		if err := g.send(i); err != nil {
			g.close()
			return nil, err
		}
		deadline := time.Now().Add(ingestDeadline)
		for g.delivered.Load() <= int64(i) {
			if time.Now().After(deadline) {
				g.close()
				return nil, fmt.Errorf("warm-up datagram %d not delivered within %v", i, ingestDeadline)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	return g, nil
}

// onDeliver is the node's delivery handler; it runs on the node's loop.
func (g *ingestRig) onDeliver(ev lpbcast.Event) {
	at := time.Since(g.base).Nanoseconds()
	if len(ev.Payload) != ingestPayload {
		g.badPay.Add(1)
		return
	}
	i := int(binary.LittleEndian.Uint64(ev.Payload))
	var want [ingestPayload]byte
	if i < 0 || i >= len(g.deliverAt) {
		g.badPay.Add(1)
		return
	}
	fillPayload(want[:], i)
	if string(want[:]) != string(ev.Payload) {
		g.badPay.Add(1)
		return
	}
	if g.deliverAt[i] != 0 {
		g.dupes.Add(1)
		return
	}
	g.deliverAt[i] = at
	g.delivered.Add(1)
}

func (g *ingestRig) send(i int) error {
	_, err := g.conn.WriteToUDP(g.load.datagram(i), g.to)
	return err
}

// drainLoop reads the node's output until the socket closes, timing the
// start of each gossip burst and answering retransmission requests.
func (g *ingestRig) drainLoop() {
	defer g.drain.Done()
	buf := make([]byte, 64*1024)
	last := time.Time{}
	for {
		n, _, err := g.conn.ReadFromUDP(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		now := time.Now()
		if now.Sub(last) > burstGap {
			g.bursts = append(g.bursts, now)
		}
		last = now
		if len(g.outSample) < outSamples {
			g.outSample = append(g.outSample, append([]byte(nil), buf[:n]...))
		}
		g.answer(buf[:n])
	}
}

// answer replies to the node's retransmission requests in dgram as the
// synthetic peers it asked would, so a datagram lost on the socket is
// recovered by the protocol's own pull rather than counted as failed.
func (g *ingestRig) answer(dgram []byte) {
	msgs, err := wire.DecodeBatch(dgram, nil)
	if err != nil {
		return
	}
	for _, m := range msgs {
		if m.Kind != proto.RetransmitRequestMsg {
			continue
		}
		var reply []proto.Event
		for _, id := range m.Request {
			if i, ok := g.load.index(id); ok {
				p := make([]byte, ingestPayload)
				fillPayload(p, i)
				reply = append(reply, proto.Event{ID: id, Payload: p})
			}
		}
		if len(reply) == 0 {
			continue
		}
		b, err := wire.Encode(proto.Message{Kind: proto.RetransmitReplyMsg, From: m.To, To: ingestNode, Reply: reply})
		if err != nil {
			continue
		}
		if _, err := g.conn.WriteToUDP(b, g.to); err == nil {
			g.resent.Add(int64(len(reply)))
		}
	}
}

// close stops the node, its transport and the generator, and waits for
// every goroutine they started.
func (g *ingestRig) close() {
	g.node.Close()
	g.tr.Close()
	g.conn.Close()
	g.drain.Wait()
}

// ingestTimed is what the open-loop phase observed.
type ingestTimed struct {
	latencyMs []float64 // per delivered event, from its due time
	// The latencies split by whether a poll ran in the event's block.
	polledMs, unpolledMs []float64
	lateMs               []float64 // per batch, how late the generator sent it
	missed               int64     // events not delivered within the deadline
	sent                 int64
	cpuPerEvent          float64 // µs, median over windows of ingestCPUWindow batches
	phase                time.Duration
	start                time.Time
	heapMB               float64
}

// timedIngest sends the load in 1 ms batches at the fixed rate, then waits
// up to the deadline for the last deliveries. A non-nil poll runs at the
// start of every other 10 ms block of batches; the latencies of events
// sent in polled blocks are kept apart in polledMs.
func timedIngest(g *ingestRig, heap *heapMeter, poll func()) (ingestTimed, error) {
	var t ingestTimed
	first := ingestWarm
	n := g.load.len()
	batches := (n - first) / ingestPerBatch
	due := make([]time.Duration, n) // after g.base
	var cpu cpuWindows
	cpu.start(float64(g.delivered.Load()))
	t.start = time.Now()
	start := t.start.Add(time.Millisecond).Sub(g.base)
	for b := 0; b < batches; b++ {
		at := start + time.Duration(b)*time.Millisecond
		if wait := at - time.Since(g.base); wait > 0 {
			time.Sleep(wait)
		}
		t.lateMs = append(t.lateMs, ms(time.Since(g.base)-at))
		for k := 0; k < ingestPerBatch; k++ {
			i := first + b*ingestPerBatch + k
			due[i] = at
			if err := g.send(i); err != nil {
				return t, fmt.Errorf("send datagram %d: %w", i, err)
			}
			t.sent++
		}
		if b%10 == 0 && poll != nil && polled(b) {
			poll()
		}
		if b%ingestCPUWindow == ingestCPUWindow-1 {
			cpu.mark(float64(g.delivered.Load()))
		}
	}
	want := int64(first) + t.sent
	deadline := time.Now().Add(ingestDeadline)
	for g.delivered.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(cpu.per) == 0 {
		return t, errors.New("no event delivered")
	}
	t.cpuPerEvent = median(cpu.per)
	t.phase = time.Since(t.start)
	t.heapMB = heap.mb(g.load.bytes() + uint64(16*len(due)))
	g.close()
	for i := first; i < first+int(t.sent); i++ {
		lat := time.Duration(g.deliverAt[i]) - due[i]
		if g.deliverAt[i] == 0 || lat > ingestDeadline {
			t.missed++
			continue
		}
		t.latencyMs = append(t.latencyMs, ms(lat))
		if poll != nil && polled((i-first)/ingestPerBatch) {
			t.polledMs = append(t.polledMs, ms(lat))
		} else {
			t.unpolledMs = append(t.unpolledMs, ms(lat))
		}
	}
	return t, nil
}

func runNodeIngest(r *run) error {
	if r.trace {
		return traceIngest(r)
	}
	heap := newHeapMeter()
	g, err := measureSetup(r, func() (*ingestRig, error) { return newIngestRig(r.seed, r.seconds) }, (*ingestRig).close)
	if err != nil {
		return err
	}
	t, err := timedIngest(g, heap, nil)
	if err != nil {
		g.close()
		return err
	}
	r.attempted += t.sent
	ingestFailures(r, g, t)
	r.notef("events sent again on the node's request: %d", g.resent.Load())
	if err := r.setP50P90("deliver_ms", "ms", t.latencyMs); err != nil {
		return err
	}
	var periods []float64
	for i := 1; i < len(g.bursts); i++ {
		if g.bursts[i-1].After(t.start) {
			periods = append(periods, ms(g.bursts[i].Sub(g.bursts[i-1])))
		}
	}
	if err := r.setP50P90("round_ms", "ms", periods); err != nil {
		return err
	}
	r.set("proc_rounds_per_s", "1/s", float64(len(periods))/t.phase.Seconds())
	r.set("peak_heap_mb", "MB", t.heapMB)
	r.set("delivery_ratio", "1", float64(len(t.latencyMs))/float64(t.sent))
	r.set("cpu_us_per_event", "us", t.cpuPerEvent)
	return nil
}

// polled reports whether batch b falls in a polled 10 ms block.
func polled(b int) bool { return (b/10)%2 == 1 }

// ingestFailures counts as failed every event not delivered by its
// deadline, and every bad payload, duplicate, dropped delivery and decode
// error.
func ingestFailures(r *run, g *ingestRig, t ingestTimed) {
	for _, c := range []struct {
		what string
		n    int64
	}{
		{"events not delivered within the deadline", t.missed},
		{"payload mismatches", g.badPay.Load()},
		{"duplicate deliveries", g.dupes.Load()},
		{"dropped deliveries", int64(g.node.DroppedDeliveries())},
		{"decode errors", int64(g.tr.Stats().DecodeErrs)},
	} {
		if c.n > 0 {
			r.fail("%d %s", c.n, c.what)
			r.failed += c.n - 1
		}
	}
}
