package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/membership"
	"repro/internal/proto"
	"repro/internal/pubsub"
	"repro/internal/rng"
)

const (
	busTopics      = 16
	busSubscribers = 2000
	busZipfS       = 1.0
	busEpsilon     = 0.05
	// Churn per step: publishes, new subscriptions, and the number of churn
	// subscriptions kept live before the oldest are cancelled.
	busPublishes  = 2
	busJoins      = 2
	busChurnLive  = 100
	busWarmSteps  = 60
	busPayloadLen = 16
)

// busEvent is one published event and what has been seen of its spread.
type busEvent struct {
	id     proto.EventID
	rank   int
	step   uint64
	all    int // deliveries at any subscriber
	stable int // deliveries at subscribers deployed before any publish
	seen   int // deliveries already turned into latency spans
}

// busLoop runs the pubsub-churn schedule on one Bus.
type busLoop struct {
	bus *pubsub.Bus
	pop *pubsub.Population
	src *rng.Source
	// Topic ranks for publishes and joins, in Zipf proportions.
	pubDeck, joinDeck *zipfDeck
	step              uint64
	events            []*busEvent
	byID              map[proto.EventID]*busEvent
	active            []*busEvent
	churn             []*pubsub.Subscription // live churn subscriptions, oldest first
	joined            int

	deployTime time.Duration // span of NewBus and Workload.Deploy

	stepSpans                        []span // delivery latencies in steps
	deliveries                       uint64
	refused                          int64
	subscribeT, cancelT, publishT    []float64 // µs per call
	published, subscribed, cancelled int64
}

func newBusLoop(r *run) (*busLoop, error) {
	start := time.Now()
	bus, err := pubsub.NewBus(pubsub.Config{Seed: r.seed, Epsilon: busEpsilon})
	if err != nil {
		return nil, err
	}
	d := &busLoop{
		bus:  bus,
		byID: map[proto.EventID]*busEvent{},
	}
	src := rng.New(r.seed ^ 0xb05_b05)
	d.pubDeck = newZipfDeck(busTopics, busZipfS, src.Split())
	d.joinDeck = newZipfDeck(busTopics, busZipfS, src.Split())
	w := pubsub.Workload{Topics: busTopics, Subscribers: busSubscribers, S: busZipfS, Seed: r.seed ^ 0x20f}
	d.pop, err = w.Deploy(bus, func(int) pubsub.Handler { return d.deliver(true) })
	if err != nil {
		return nil, err
	}
	d.deployTime = time.Since(start)
	for i := 0; i < busWarmSteps; i++ {
		d.round(r)
	}
	return d, nil
}

// deliver returns a subscriber's handler; stable subscribers count toward
// delivery_ratio.
func (d *busLoop) deliver(stable bool) pubsub.Handler {
	return func(_ string, ev proto.Event) {
		e := d.byID[ev.ID]
		if e == nil {
			return
		}
		e.all++
		if stable {
			e.stable++
		}
	}
}

// round runs one step of the schedule: publishes, joins, cancels of the
// oldest churn subscriptions, then Bus.Step. Errors from the bus count as
// failed operations. It returns the host time of Step alone.
func (d *busLoop) round(r *run) time.Duration {
	for k := 0; k < busPublishes; k++ {
		rank := d.pubDeck.draw()
		e := &busEvent{rank: rank, step: d.step}
		start := time.Now()
		ev, err := d.pop.PublishAt(rank, make([]byte, busPayloadLen))
		d.publishT = append(d.publishT, float64(time.Since(start).Nanoseconds())/1e3)
		d.published++
		if err != nil {
			r.fail("publish on %s: %v", d.pop.TopicNames[rank], err)
			continue
		}
		e.id = ev.ID
		// The publisher, a stable subscriber, delivered locally before the
		// id was known to the handlers.
		e.all, e.stable = 1, 1
		d.byID[ev.ID] = e
		d.events = append(d.events, e)
		d.active = append(d.active, e)
	}
	for k := 0; k < busJoins; k++ {
		rank := d.joinDeck.draw()
		cl := d.bus.NewClient(fmt.Sprintf("churn%06d", d.joined))
		d.joined++
		start := time.Now()
		sub, err := cl.Subscribe(d.pop.TopicNames[rank], d.deliver(false))
		d.subscribeT = append(d.subscribeT, float64(time.Since(start).Nanoseconds())/1e3)
		d.subscribed++
		if err != nil {
			r.fail("subscribe to %s: %v", d.pop.TopicNames[rank], err)
			continue
		}
		d.churn = append(d.churn, sub)
	}
	// Cancel the oldest churn subscriptions beyond busChurnLive. A refused
	// cancel (§3.4 back-pressure: the member's unSubs buffer is full)
	// requeues its subscription as the newest, to be retried once the
	// others ahead of it have been tried, and the next oldest is tried.
	for tries := len(d.churn); len(d.churn) > busChurnLive && tries > 0; tries-- {
		sub := d.churn[0]
		d.churn = d.churn[1:]
		start := time.Now()
		err := sub.Cancel()
		d.cancelT = append(d.cancelT, float64(time.Since(start).Nanoseconds())/1e3)
		d.cancelled++
		switch {
		case errors.Is(err, membership.ErrUnsubRefused):
			d.refused++
			d.churn = append(d.churn, sub)
		case err != nil:
			r.fail("cancel: %v", err)
			d.churn = append(d.churn, sub)
		}
	}
	start := time.Now()
	d.bus.Step()
	end := time.Now()
	d.step++
	keep := d.active[:0]
	for _, e := range d.active {
		if e.all > e.seen {
			s := float64(d.step - e.step)
			d.stepSpans = append(d.stepSpans, span{lo: s - 1, hi: s, w: float64(e.all - e.seen)})
			d.deliveries += uint64(e.all - e.seen)
			e.seen = e.all
		}
		if d.step-e.step < trackRounds {
			keep = append(keep, e)
		}
	}
	d.active = keep
	return end.Sub(start)
}

// members is the number of active subscriptions each step advances.
func (d *busLoop) members() int { return busSubscribers + len(d.churn) }

// deliveryRatio is stable-subscriber deliveries ÷ (events × the topic's
// stable subscribers) over events at least ratioAge steps old.
func (d *busLoop) deliveryRatio() float64 {
	var got, want float64
	for _, e := range d.events {
		if d.step-e.step < ratioAge {
			continue
		}
		got += float64(e.stable)
		want += float64(d.pop.Size(e.rank))
	}
	if want == 0 {
		return 0
	}
	return got / want
}

func (d *busLoop) fingerprint() uint64 {
	f := newFingerprint()
	for _, e := range d.events {
		f.add(uint64(e.id.Origin), e.id.Seq, uint64(e.all), uint64(e.stable))
	}
	s := d.bus.TotalNetStats()
	f.add(s.Sent, s.Dropped, s.ToCrashed, s.UnknownDest, s.Delivered, s.DeliveredLate,
		s.DroppedInPartition, s.InFlight, s.TruncatedChase)
	return f.h
}

func runPubsubChurn(r *run) error {
	if r.trace {
		return tracePubsub(r)
	}
	heap := newHeapMeter()
	d, err := measureSetup(r, func() (*busLoop, error) { return newBusLoop(r) }, func(*busLoop) {})
	if err != nil {
		return err
	}
	d.stepSpans = d.stepSpans[:0]
	t, err := timedBus(r, d, heap)
	if err != nil {
		return err
	}
	r.notef("fingerprint %s seed=%d steps=%d fnv1a=%016x", r.workload, r.seed, minOps, t.print)
	r.notef("churn subscriptions live %d, cancels refused %d of %d", len(d.churn), d.refused, d.cancelled)
	step, err := setRoundMetrics(r, t.roundMs, t.memberSteps/float64(len(t.roundMs)))
	if err != nil {
		return err
	}
	r.set("peak_heap_mb", "MB", t.heapMB)
	r.set("delivery_ratio", "1", t.ratio)
	if err := setDeliverP50P90(r, d.stepSpans, step); err != nil {
		return err
	}
	r.set("cpu_us_per_event", "us", t.cpuPerEvent)
	return nil
}

type busTimed struct {
	roundMs     []float64
	memberSteps float64
	cpuPerEvent float64 // µs, median over windows of cpuWindow steps
	ratio       float64
	print       uint64
	heapMB      float64
}

// timedBus runs steps for the run's duration, and never fewer than minOps,
// checking NetStats conservation after each. Like timedSim, it takes the
// fingerprint, delivery ratio and live heap at step minOps.
func timedBus(r *run, d *busLoop, heap *heapMeter) (busTimed, error) {
	var t busTimed
	ops0 := d.published + d.subscribed + d.cancelled
	var cpu cpuWindows
	cpu.start(float64(d.deliveries))
	start := time.Now()
	for n := 0; n < minOps || time.Since(start) < r.seconds; n++ {
		members := d.members()
		dt := d.round(r)
		r.attempted++
		t.roundMs = append(t.roundMs, ms(dt))
		t.memberSteps += float64(members)
		if err := d.bus.TotalNetStats().Conserved(); err != nil {
			r.fail("step %d: %v", d.step, err)
		}
		if n%cpuWindow == cpuWindow-1 {
			cpu.mark(float64(d.deliveries))
		}
		if n+1 == minOps {
			t.ratio = d.deliveryRatio()
			t.print = d.fingerprint()
			t.heapMB = heap.mb(0)
			cpu.start(float64(d.deliveries))
		}
	}
	r.attempted += d.published + d.subscribed + d.cancelled - ops0
	if len(cpu.per) == 0 {
		return t, fmt.Errorf("timed phase delivered nothing")
	}
	t.cpuPerEvent = median(cpu.per)
	return t, nil
}

// deckSize is the number of draws over which a zipfDeck's topic mix is
// exact.
const deckSize = 100

// zipfDeck draws ranks in Zipf proportions without i.i.d. luck: each deck
// of deckSize cards holds every rank in proportion to its weight (largest
// remainders rounded up), shuffled by the seed. Runs of different seeds
// then differ in the order of topics, not in their mix.
type zipfDeck struct {
	cards []int
	next  int
	src   *rng.Source
}

func newZipfDeck(n int, s float64, src *rng.Source) *zipfDeck {
	w := make([]float64, n)
	var total float64
	for k := range w {
		w[k] = 1 / math.Pow(float64(k+1), s)
		total += w[k]
	}
	d := &zipfDeck{src: src}
	rem := make([]int, n)
	for k := range w {
		c := int(deckSize * w[k] / total)
		for i := 0; i < c; i++ {
			d.cards = append(d.cards, k)
		}
		rem[k] = k
	}
	frac := func(k int) float64 { x := deckSize * w[k] / total; return x - math.Floor(x) }
	sort.SliceStable(rem, func(a, b int) bool { return frac(rem[a]) > frac(rem[b]) })
	for i := 0; len(d.cards) < deckSize; i++ {
		d.cards = append(d.cards, rem[i])
	}
	d.next = len(d.cards)
	return d
}

func (d *zipfDeck) draw() int {
	if d.next == len(d.cards) {
		d.src.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}
