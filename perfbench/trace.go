package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wire"
)

// endToEnd names every metric a --trace 0 run reports, with its unit.
var endToEnd = []metricName{
	{"setup_s", "s"}, {"round_ms_p50", "ms"}, {"round_ms_p90", "ms"},
	{"proc_rounds_per_s", "1/s"}, {"peak_heap_mb", "MB"}, {"delivery_ratio", "1"},
	{"deliver_ms_p50", "ms"}, {"deliver_ms_p90", "ms"}, {"cpu_us_per_event", "us"},
}

// perLayer names every metric a --trace 1 run reports. A workload that
// never enters a layer reports that layer's metrics as 0.
var perLayer = []metricName{
	{"sim.round_ms", "ms"}, {"sim.new_cluster_ms", "ms"}, {"sim.warmup_ms", "ms"},
	{"sim.speedup_x", "x"}, {"sim.event_over_round_x", "x"},
	{"sim.sent_per_round", "count"}, {"sim.dropped_per_round", "count"},
	{"sim.to_crashed_per_round", "count"}, {"sim.inflight", "count"},
	{"sim.first_deliveries_per_round", "count"},
	{"sim.allocs_per_round", "count"}, {"sim.alloc_bytes_per_round", "B"},
	{"pool.chunk_bytes", "B"},
	{"core.handle_gossip_us", "us"}, {"core.tick_us", "us"},
	{"core.gossips_received_per_round", "count"}, {"core.events_delivered_per_round", "count"},
	{"core.duplicate_ratio", "1"}, {"core.retransmit_requests_per_round", "count"},
	{"core.events_overflowed_per_round", "count"},
	{"membership.apply_subs_us", "us"}, {"membership.targets_ns", "ns"},
	{"membership.view_len_mean", "count"}, {"membership.subs_len_mean", "count"},
	{"membership.apply_subs_max_ms", "ms"},
	{"buffer.digest_contains_ns", "ns"}, {"buffer.archive_store_ns", "ns"},
	{"buffer.archive_allocs_per_store", "count"}, {"buffer.digest_len_mean", "count"},
	{"buffer.events_len_mean", "count"},
	{"rng.sample_ns", "ns"},
	{"event.schedule_ns", "ns"}, {"event.pop_ns", "ns"},
	{"pubsub.step_ms", "ms"}, {"pubsub.deploy_ms", "ms"}, {"pubsub.subscribe_us", "us"},
	{"pubsub.cancel_us", "us"}, {"pubsub.publish_us", "us"}, {"pubsub.sent_per_step", "count"},
	{"pubsub.truncated_chase", "count"}, {"pubsub.cancel_refused", "count"},
	{"wire.decode_us", "us"}, {"wire.encode_us", "us"}, {"wire.bytes_in_per_gossip", "B"},
	{"wire.decode_max_us", "us"},
	{"transport.sendbatch_us", "us"}, {"transport.sendbatch_allocs", "count"},
	{"transport.datagrams_out_per_s", "1/s"}, {"transport.bytes_out_per_s", "B/s"},
	{"transport.decode_errs", "count"}, {"transport.dropped", "count"},
	{"lpbcast.gossips_received", "count"}, {"lpbcast.dropped_deliveries", "count"},
	{"load.late_ms_p90", "ms"},
	{"trace.overhead_ms", "ms"},
}

type metricName struct{ name, unit string }

// checkNames fails unless r reports exactly the metrics in want, each with
// its unit.
func checkNames(r *run, want []metricName) error {
	if len(r.metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(r.metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.metrics[m.name]
		if !ok || got.Unit != m.unit {
			return fmt.Errorf("metric %s missing or not in %s", m.name, m.unit)
		}
	}
	return nil
}

// zeroLayers reports every per-layer metric as 0 until a layer the
// workload enters sets it.
func zeroLayers(r *run) {
	for _, m := range perLayer {
		r.set(m.name, m.unit, 0)
	}
}

// commonProbes times the layer functions every workload reaches through
// its engines, with the paper's default configuration, and the oversized
// one-datagram input no workload sends.
func commonProbes(r *run) {
	cfg := core.DefaultConfig()
	r.set("rng.sample_ns", "ns", probeSample(cfg.Membership.MaxView, cfg.Fanout))
	applyMs, decodeUs := probeOversized(r, cfg.Membership)
	r.set("membership.apply_subs_max_ms", "ms", applyMs)
	r.set("wire.decode_max_us", "us", decodeUs)
}

// traceMinOps is the least number of traced operations in a traced run.
const traceMinOps = 40

func traceSim(r *run, sc simCase) error {
	zeroLayers(r)
	commonProbes(r)
	d, err := newSimLoop(sc, r.seed, r.workers)
	if err != nil {
		return err
	}
	defer d.c.Close()
	r.set("sim.new_cluster_ms", "ms", ms(d.buildTime))
	r.set("sim.warmup_ms", "ms", ms(d.warmTime))

	// Traced and untraced rounds alternate, so drift in the workload or
	// the machine cancels out of the tracing overhead.
	var traced, base []float64
	var inflight float64
	net0, st0, del0 := d.c.NetStats(), d.engineStats(), d.deliveries
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	start := time.Now()
	for len(traced) < traceMinOps || time.Since(start) < r.seconds {
		dt, err := d.round()
		if err != nil {
			return err
		}
		base = append(base, ms(dt))
		dt, err = d.round()
		if err != nil {
			return err
		}
		traced = append(traced, ms(dt))
		s := d.c.NetStats()
		inflight += float64(s.InFlight)
		if err := s.Conserved(); err != nil {
			r.fail("round %d: %v", d.c.Now(), err)
		}
	}
	runtime.ReadMemStats(&mem1)
	rounds := float64(len(traced) + len(base))
	net1, st1 := d.c.NetStats(), d.engineStats()
	r.attempted += int64(len(base) + len(traced))
	r.set("sim.round_ms", "ms", median(traced))
	r.set("trace.overhead_ms", "ms", median(traced)-median(base))
	r.set("sim.sent_per_round", "count", float64(net1.Sent-net0.Sent)/rounds)
	r.set("sim.dropped_per_round", "count", float64(net1.Dropped-net0.Dropped)/rounds)
	r.set("sim.to_crashed_per_round", "count", float64(net1.ToCrashed-net0.ToCrashed)/rounds)
	r.set("sim.inflight", "count", inflight/float64(len(traced)))
	r.set("sim.first_deliveries_per_round", "count", float64(d.deliveries-del0)/rounds)
	r.set("sim.allocs_per_round", "count", float64(mem1.Mallocs-mem0.Mallocs)/rounds)
	r.set("sim.alloc_bytes_per_round", "B", float64(mem1.TotalAlloc-mem0.TotalAlloc)/rounds)
	r.set("pool.chunk_bytes", "B", float64(d.c.PoolStats().ChunkBytes))
	setCoreCounters(r, st0, st1, rounds)

	// Occupancy, read through the engines' accessors.
	var view, subs, digest, events float64
	n := float64(d.c.N())
	for i := 0; i < d.c.N(); i++ {
		if e, ok := d.c.Process(i).(*core.Engine); ok {
			view += float64(e.ViewLen())
			subs += float64(e.SubsLen())
			digest += float64(e.DigestLen())
			events += float64(e.PendingEvents())
		}
	}
	r.set("membership.view_len_mean", "count", view/n)
	r.set("membership.subs_len_mean", "count", subs/n)
	r.set("buffer.digest_len_mean", "count", digest/n)
	r.set("buffer.events_len_mean", "count", events/n)

	// Layer probes on the workload's own gossips and configuration.
	opts := sc.options(r.seed, r.workers)
	cfg := opts.Lpbcast
	msgs, view0 := d.captureGossips(256)
	var subLists [][]proto.ProcessID
	for _, m := range msgs {
		subLists = append(subLists, m.Gossip.Subs)
	}
	applyUs, targetsNs := probeMembership(cfg.Membership, cfg.Fanout, subLists)
	r.set("membership.apply_subs_us", "us", applyUs)
	r.set("membership.targets_ns", "ns", targetsNs)
	step := uint64(1)
	if opts.Clock == sim.ClockEvent {
		step = 100 // the default event-clock period, in virtual ms
	}
	handleUs, tickUs := probeEngine(cfg, view0, msgs, cfg.Fanout, step)
	r.set("core.handle_gossip_us", "us", handleUs)
	r.set("core.tick_us", "us", tickUs)
	ids := make([]proto.EventID, len(d.events))
	for i, e := range d.events {
		ids[i] = e.id
	}
	r.set("buffer.digest_contains_ns", "ns", probeDigest(ids))
	storeNs, allocs := probeArchive(cfg.ArchiveSize)
	r.set("buffer.archive_store_ns", "ns", storeNs)
	r.set("buffer.archive_allocs_per_store", "count", allocs)
	if opts.Clock == sim.ClockEvent {
		// Tick timers for every process plus arrival markers over the
		// delay range, as the event-clock cluster holds them.
		sched, pop := probeWheel(d.c.N()+int(opts.Delay.MaxDelay()), 100, uint64(opts.Delay.MaxDelay()))
		r.set("event.schedule_ns", "ns", sched)
		r.set("event.pop_ns", "ns", pop)
	}
	d.c.Close()

	if sc.perRound == 0 {
		x, err := sameRunRatio(r, sc, func(o *sim.Options) { o.Workers, o.EmissionReuse = 1, true }, func(*sim.Options) {})
		if err != nil {
			return err
		}
		r.set("sim.speedup_x", "x", x)
	} else {
		zeroDelay := func(o *sim.Options) { o.Delay = nil; o.Clock = sim.ClockRounds }
		eventClock := func(o *sim.Options) { o.Delay = nil; o.Clock = sim.ClockEvent }
		x, err := sameRunRatio(r, sc, eventClock, zeroDelay)
		if err != nil {
			return err
		}
		r.set("sim.event_over_round_x", "x", x)
	}
	return nil
}

// setCoreCounters sets the per-round engine counters from two snapshots.
func setCoreCounters(r *run, a, b core.Stats, rounds float64) {
	recv := float64(b.GossipsReceived - a.GossipsReceived)
	r.set("core.gossips_received_per_round", "count", recv/rounds)
	r.set("core.events_delivered_per_round", "count", float64(b.EventsDelivered-a.EventsDelivered)/rounds)
	r.set("core.retransmit_requests_per_round", "count", float64(b.RetransmitRequests-a.RetransmitRequests)/rounds)
	r.set("core.events_overflowed_per_round", "count", float64(b.EventsOverflowed-a.EventsOverflowed)/rounds)
	// Wasted work: duplicate arrivals over all arrivals of events.
	dup := float64(b.DuplicatesDropped - a.DuplicatesDropped)
	fresh := float64(b.EventsDelivered-a.EventsDelivered) - float64(b.AssumedFromDigest-a.AssumedFromDigest)
	if dup+fresh > 0 {
		r.set("core.duplicate_ratio", "1", dup/(dup+fresh))
	}
}

// captureGossips composes, and then aborts, the next emission of up to k
// processes, returning deep copies of their gossips and the first
// process's view. TickAbort rewinds every effect of TickCompose, so the
// cluster's state is unchanged.
func (d *simLoop) captureGossips(k int) ([]proto.Message, []proto.ProcessID) {
	now := d.c.Now()
	if d.c.NowMs() > 0 {
		now = d.c.NowMs()
	}
	var out []proto.Message
	var view []proto.ProcessID
	src := rng.New(17)
	for _, i := range src.Sample(d.c.N(), min(k, d.c.N())) {
		e, ok := d.c.Process(i).(*core.Engine)
		if !ok || d.c.Crashed(e.Self()) {
			continue
		}
		if view == nil {
			view = e.View()
		}
		msgs := e.TickCompose(now, nil)
		for _, m := range msgs {
			if m.Kind == proto.GossipMsg && m.Gossip != nil {
				g := m.Gossip.Clone()
				m.Gossip = &g
				out = append(out, m)
				break
			}
		}
		e.TickAbort()
	}
	return out, view
}

// sameRunRatio builds the workload twice in this process with one seed,
// changed by num and den, runs both the same rounds alternately, checks
// that they computed the same thing, and returns num's median round time
// over den's.
func sameRunRatio(r *run, sc simCase, num, den func(*sim.Options)) (float64, error) {
	build := func(edit func(*sim.Options)) (*simLoop, error) {
		c := sc
		c.options = func(seed uint64, workers int) sim.Options {
			o := sc.options(seed, workers)
			edit(&o)
			return o
		}
		return newSimLoop(c, r.seed, r.workers)
	}
	a, err := build(num)
	if err != nil {
		return 0, err
	}
	defer a.c.Close()
	b, err := build(den)
	if err != nil {
		return 0, err
	}
	defer b.c.Close()
	var ta, tb []float64
	for i := 0; i < traceMinOps*2; i++ {
		da, err := a.round()
		if err != nil {
			return 0, err
		}
		db, err := b.round()
		if err != nil {
			return 0, err
		}
		ta, tb = append(ta, ms(da)), append(tb, ms(db))
	}
	r.attempted++
	if fa, fb := a.fingerprint(), b.fingerprint(); fa != fb {
		r.fail("same-seed clusters diverged: fnv1a %016x vs %016x", fa, fb)
	}
	return median(ta) / median(tb), nil
}

func tracePubsub(r *run) error {
	zeroLayers(r)
	commonProbes(r)
	d, err := newBusLoop(r)
	if err != nil {
		return err
	}
	r.set("pubsub.deploy_ms", "ms", ms(d.deployTime))
	// Traced and untraced steps alternate, as in traceSim.
	d.publishT, d.subscribeT, d.cancelT = nil, nil, nil
	refused0 := d.refused
	net0 := d.bus.TotalNetStats()
	var traced, base []float64
	start := time.Now()
	for len(traced) < traceMinOps || time.Since(start) < r.seconds {
		base = append(base, ms(d.round(r)))
		traced = append(traced, ms(d.round(r)))
		if err := d.bus.TotalNetStats().Conserved(); err != nil {
			r.fail("step %d: %v", d.step, err)
		}
	}
	net1 := d.bus.TotalNetStats()
	r.attempted += int64(len(base) + len(traced))
	r.set("pubsub.step_ms", "ms", median(traced))
	r.set("trace.overhead_ms", "ms", median(traced)-median(base))
	r.set("pubsub.publish_us", "us", median(d.publishT))
	r.set("pubsub.subscribe_us", "us", median(d.subscribeT))
	r.set("pubsub.cancel_us", "us", median(d.cancelT))
	r.set("pubsub.sent_per_step", "count", float64(net1.Sent-net0.Sent)/float64(len(traced)+len(base)))
	r.set("pubsub.truncated_chase", "count", float64(net1.TruncatedChase))
	r.set("pubsub.cancel_refused", "count", float64(d.refused-refused0))
	return nil
}

func traceIngest(r *run) error {
	zeroLayers(r)
	commonProbes(r)
	g, err := newIngestRig(r.seed, r.seconds)
	if err != nil {
		return err
	}
	stats0, tr0 := g.node.Stats(), g.tr.Stats()
	t, err := timedIngest(g, newHeapMeter(), func() {
		// What a control plane would poll: engine, transport and buffer
		// counters, each behind the node's lock or the transport's atomics.
		g.node.Stats()
		g.node.Occupancy()
		g.tr.Stats()
	})
	if err != nil {
		g.close()
		return err
	}
	stats1, tr1 := g.node.Stats(), g.tr.Stats()
	r.attempted += t.sent
	ingestFailures(r, g, t)
	r.notef("events sent again on the node's request: %d", g.resent.Load())
	r.set("trace.overhead_ms", "ms", median(t.polledMs)-median(t.unpolledMs))
	late, err := percentile(t.lateMs, 0.9)
	if err != nil {
		return fmt.Errorf("load.late_ms_p90: %w", err)
	}
	r.set("load.late_ms_p90", "ms", late)
	rounds := 0.0
	for _, b := range g.bursts {
		if b.After(t.start) {
			rounds++
		}
	}
	setCoreCounters(r, stats0, stats1, max(rounds, 1))
	secs := t.phase.Seconds()
	r.set("transport.datagrams_out_per_s", "1/s", float64(tr1.Datagrams-tr0.Datagrams)/secs)
	r.set("transport.bytes_out_per_s", "B/s", float64(tr1.Bytes-tr0.Bytes)/secs)
	r.set("transport.decode_errs", "count", float64(tr1.DecodeErrs))
	r.set("transport.dropped", "count", float64(tr1.Dropped))
	r.set("lpbcast.gossips_received", "count", float64(stats1.GossipsReceived-stats0.GossipsReceived))
	r.set("lpbcast.dropped_deliveries", "count", float64(g.node.DroppedDeliveries()))
	r.set("membership.view_len_mean", "count", float64(len(g.node.View())))
	if occ, ok := g.node.Occupancy(); ok {
		r.set("membership.subs_len_mean", "count", float64(occ.SubsLen))
		r.set("buffer.digest_len_mean", "count", float64(occ.DigestLen))
		r.set("buffer.events_len_mean", "count", float64(occ.PendingEvents))
	}

	// Replay the exact input stream, decoded, through standalone layers.
	var dgrams [][]byte
	var in []proto.Message
	var subLists [][]proto.ProcessID
	var ids []proto.EventID
	var bytesIn float64
	for i := 0; i < g.load.len(); i++ {
		b := g.load.datagram(i)
		m, err := wire.Decode(b)
		if err != nil || m.Gossip == nil {
			return fmt.Errorf("load datagram %d does not decode: %v", i, err)
		}
		dgrams = append(dgrams, b)
		in = append(in, m)
		subLists = append(subLists, m.Gossip.Subs)
		ids = append(ids, m.Gossip.Events[0].ID)
		bytesIn += float64(len(b))
	}
	r.set("wire.bytes_in_per_gossip", "B", bytesIn/float64(len(dgrams)))
	r.set("wire.decode_us", "us", probeDecode(dgrams))
	out, err := decodeAll(g.outSample)
	if err != nil {
		return fmt.Errorf("node output: %w", err)
	}
	r.set("wire.encode_us", "us", probeEncode(out))
	cfg := liveEngineConfig()
	applyUs, targetsNs := probeMembership(cfg.Membership, cfg.Fanout, subLists)
	r.set("membership.apply_subs_us", "us", applyUs)
	r.set("membership.targets_ns", "ns", targetsNs)
	// The node ticks every 10 ms, while 40 datagrams arrive.
	perTick := ingestPerBatch * int(ingestInterval/time.Millisecond)
	handleUs, tickUs := probeEngine(cfg, g.node.View(), in, perTick, uint64(ingestInterval/time.Millisecond))
	r.set("core.handle_gossip_us", "us", handleUs)
	r.set("core.tick_us", "us", tickUs)
	r.set("buffer.digest_contains_ns", "ns", probeDigest(ids))
	storeNs, allocs := probeArchive(cfg.ArchiveSize)
	r.set("buffer.archive_store_ns", "ns", storeNs)
	r.set("buffer.archive_allocs_per_store", "count", allocs)
	// One round of node output: a gossip to each of F peers.
	batch := out[:min(len(out), cfg.Fanout)]
	us, sendAllocs, err := probeSendBatch(batch)
	if err != nil {
		return err
	}
	r.set("transport.sendbatch_us", "us", us)
	r.set("transport.sendbatch_allocs", "count", sendAllocs)
	return nil
}

// liveEngineConfig is the engine configuration a live node runs with by
// default: the paper's parameters, ms-scale unsubscription lifetime, and
// retransmission on.
func liveEngineConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Membership.UnsubTTL = 60_000
	cfg.Retransmit = true
	cfg.MaxRetransmitPerGossip = 64
	return cfg
}

func decodeAll(dgrams [][]byte) ([]proto.Message, error) {
	var out []proto.Message
	for _, b := range dgrams {
		msgs, err := wire.DecodeBatch(b, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, msgs...)
	}
	return out, nil
}
