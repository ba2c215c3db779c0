package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/sim"
)

const (
	// trackRounds is how long an event's spread is followed after its
	// publish; lpbcast infects these cluster sizes in well under it.
	trackRounds = 40
	// ratioAge is the age, in rounds, an event must reach before it counts
	// toward delivery_ratio: old enough to have finished spreading.
	ratioAge = 25
)

// simCase is one simulator workload.
type simCase struct {
	options func(seed uint64, workers int) sim.Options
	// warm is the number of rounds run after construction, publishing on
	// the workload's schedule, before the timed phase.
	warm int
	// perRound is the number of events published before every round.
	perRound int
	// warmEvents is the number of events published one per round at the
	// start of the warm-up.
	warmEvents int
	// pool is the number of distinct publishers the schedule draws from.
	pool int
}

// simSteady is membership-bound: after the warm-up events have spread, pure
// membership gossip.
var simSteady = simCase{
	options: func(seed uint64, workers int) sim.Options {
		o := sim.DefaultOptions(2000)
		o.Seed = seed
		o.Tau = 0
		o.Lpbcast.AssumeFromDigest = true
		o.Workers = workers
		return o
	},
	// The warm-up events fill the digests and give the delivery latency
	// more than one seeded infection to rest on; all have finished
	// spreading before the timed phase, which delivers nothing.
	warm:       45,
	warmEvents: 16,
	pool:       16,
}

// simPublish is dissemination-bound: a steady publish load over a lossy,
// delayed network with crashes, on the event clock.
var simPublish = simCase{
	options: func(seed uint64, workers int) sim.Options {
		o := sim.DefaultOptions(1000)
		o.Seed = seed
		o.Tau = 0.01
		o.Horizon = 500
		o.Clock = sim.ClockEvent
		o.Delay = fault.Millis{Model: fault.UniformDelay{Min: 10, Max: 180}}
		o.Lpbcast.Retransmit = true
		o.Workers = workers
		return o
	},
	warm:     60,
	perRound: 4,
	pool:     64,
}

// simEvent is one published event and what has been seen of its spread.
type simEvent struct {
	id    proto.EventID
	round uint64 // cluster round at publish time
	count int    // processes known to have delivered it
}

// simLoop runs a cluster round by round, publishing on a seeded schedule
// and following each event's spread at round boundaries.
type simLoop struct {
	c        *sim.Cluster
	src      *rng.Source
	pool     []int
	perRound int

	events []simEvent
	active []int // indices of events still followed
	// roundSpans are delivery latencies counted in rounds: a delivery
	// seen after a round happened somewhere inside that round.
	roundSpans []span
	deliveries uint64 // first deliveries observed, publishers' own excluded
	published  int64

	buildTime, warmTime time.Duration // spans of NewCluster and the warm-up
}

func newSimLoop(sc simCase, seed uint64, workers int) (*simLoop, error) {
	opts := sc.options(seed, workers)
	start := time.Now()
	c, err := sim.NewCluster(opts)
	if err != nil {
		return nil, err
	}
	built := time.Now()
	src := rng.New(seed ^ 0x5eed_5eed)
	d := &simLoop{c: c, src: src, pool: src.Sample(opts.N, sc.pool), perRound: sc.perRound, buildTime: built.Sub(start)}
	for i := 0; i < sc.warm; i++ {
		if i < sc.warmEvents {
			if err := d.publish(1); err != nil {
				c.Close()
				return nil, err
			}
		}
		if _, err := d.round(); err != nil {
			c.Close()
			return nil, err
		}
	}
	d.warmTime = time.Since(built)
	return d, nil
}

// publish publishes k events from the pool, skipping crashed publishers.
func (d *simLoop) publish(k int) error {
	for ; k > 0; k-- {
		j := d.src.Intn(len(d.pool))
		idx := -1
		for t := 0; t < len(d.pool); t++ {
			i := d.pool[(j+t)%len(d.pool)]
			if !d.c.Crashed(proto.ProcessID(i + 1)) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("every publisher in the pool has crashed")
		}
		ev, err := d.c.PublishAt(idx)
		if err != nil {
			return err
		}
		d.published++
		d.events = append(d.events, simEvent{id: ev.ID, round: d.c.Now(), count: d.c.DeliveredCount(ev.ID)})
		d.active = append(d.active, len(d.events)-1)
	}
	return nil
}

// round publishes the round's events, runs one round and follows the
// spread. It returns the host time of RunRound alone.
func (d *simLoop) round() (time.Duration, error) {
	if err := d.publish(d.perRound); err != nil {
		return 0, err
	}
	start := time.Now()
	d.c.RunRound()
	end := time.Now()
	keep := d.active[:0]
	for _, ei := range d.active {
		e := &d.events[ei]
		if n := d.c.DeliveredCount(e.id); n > e.count {
			r := float64(d.c.Now() - e.round)
			d.roundSpans = append(d.roundSpans, span{lo: r - 1, hi: r, w: float64(n - e.count)})
			d.deliveries += uint64(n - e.count)
			e.count = n
		}
		if d.c.Now()-e.round < trackRounds {
			keep = append(keep, ei)
		}
	}
	d.active = keep
	return end.Sub(start), nil
}

// deliveryRatio is deliveries ÷ (events × live processes) over events at
// least ratioAge rounds old, counting only processes alive now.
func (d *simLoop) deliveryRatio() float64 {
	var got, want float64
	now := d.c.Now()
	for _, e := range d.events {
		if now-e.round < ratioAge {
			continue
		}
		for i := 0; i < d.c.N(); i++ {
			pid := proto.ProcessID(i + 1)
			if d.c.Crashed(pid) {
				continue
			}
			want++
			if d.c.HasDelivered(pid, e.id) {
				got++
			}
		}
	}
	if want == 0 {
		return 0
	}
	return got / want
}

// fingerprint hashes every event's delivered count and the NetStats.
func (d *simLoop) fingerprint() uint64 {
	f := newFingerprint()
	for _, e := range d.events {
		f.add(uint64(e.id.Origin), e.id.Seq, uint64(d.c.DeliveredCount(e.id)))
	}
	s := d.c.NetStats()
	f.add(s.Sent, s.Dropped, s.ToCrashed, s.UnknownDest, s.Delivered, s.DeliveredLate,
		s.DroppedInPartition, s.InFlight, s.TruncatedChase)
	return f.h
}

// engineStats sums the engine counters over every process.
func (d *simLoop) engineStats() core.Stats {
	var t core.Stats
	for i := 0; i < d.c.N(); i++ {
		e, ok := d.c.Process(i).(*core.Engine)
		if !ok {
			continue
		}
		s := e.Stats()
		t.GossipsReceived += s.GossipsReceived
		t.EventsDelivered += s.EventsDelivered
		t.DuplicatesDropped += s.DuplicatesDropped
		t.RetransmitRequests += s.RetransmitRequests
		t.EventsOverflowed += s.EventsOverflowed
		t.AssumedFromDigest += s.AssumedFromDigest
	}
	return t
}

func runSimSteady(r *run) error  { return runSim(r, simSteady) }
func runSimPublish(r *run) error { return runSim(r, simPublish) }

// simTimed is what the timed phase of a sim run observed.
type simTimed struct {
	roundMs     []float64
	cpuPerEvent float64 // µs, median over windows of cpuWindow rounds
	ratio       float64
	print       uint64
	heapMB      float64
}

// cpuWindow is the number of rounds or steps per CPU-measuring window.
const cpuWindow = 10

// timedSim runs rounds for the run's duration, and never fewer than
// minOps, checking NetStats conservation after each. At round minOps it
// takes the fingerprint, the delivery ratio and the live heap, whose cost
// is not charged to the CPU figure: the same state in every run of a seed,
// however fast the rounds ran.
func timedSim(r *run, d *simLoop, heap *heapMeter) (simTimed, error) {
	var t simTimed
	// sim-steady delivers nothing after its warm-up, so its CPU is charged
	// per delivered gossip message instead of per delivered event.
	work := func() float64 {
		if d.perRound == 0 {
			return float64(d.c.NetStats().Delivered)
		}
		return float64(d.deliveries)
	}
	var cpu cpuWindows
	cpu.start(work())
	start := time.Now()
	for n := 0; n < minOps || time.Since(start) < r.seconds; n++ {
		pub := d.published
		dt, err := d.round()
		if err != nil {
			return t, err
		}
		r.attempted += 1 + d.published - pub
		t.roundMs = append(t.roundMs, ms(dt))
		if err := d.c.NetStats().Conserved(); err != nil {
			r.fail("round %d: %v", d.c.Now(), err)
		}
		if n%cpuWindow == cpuWindow-1 {
			cpu.mark(work())
		}
		if n+1 == minOps {
			t.ratio = d.deliveryRatio()
			t.print = d.fingerprint()
			t.heapMB = heap.mb(0)
			cpu.start(work())
		}
	}
	if len(cpu.per) == 0 {
		return t, fmt.Errorf("timed phase delivered nothing")
	}
	t.cpuPerEvent = median(cpu.per)
	return t, nil
}

func runSim(r *run, sc simCase) error {
	if r.trace {
		return traceSim(r, sc)
	}
	heap := newHeapMeter()
	d, err := measureSetup(r, func() (*simLoop, error) {
		return newSimLoop(sc, r.seed, r.workers)
	}, func(d *simLoop) { d.c.Close() })
	if err != nil {
		return err
	}
	defer d.c.Close()
	// Delivery latency is measured on the timed phase's own events;
	// sim-steady, which delivers nothing then, keeps its warm-up ones.
	if sc.perRound > 0 {
		d.roundSpans = d.roundSpans[:0]
	}
	t, err := timedSim(r, d, heap)
	if err != nil {
		return err
	}
	r.notef("fingerprint %s seed=%d rounds=%d fnv1a=%016x", r.workload, r.seed, minOps, t.print)
	round, err := setRoundMetrics(r, t.roundMs, float64(d.c.N()))
	if err != nil {
		return err
	}
	r.set("peak_heap_mb", "MB", t.heapMB)
	r.set("delivery_ratio", "1", t.ratio)
	if err := setDeliverP50P90(r, d.roundSpans, round); err != nil {
		return err
	}
	r.set("cpu_us_per_event", "us", t.cpuPerEvent)
	return nil
}
