package membership

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/buffer"
	"repro/internal/idmap"
	"repro/internal/proto"
	"repro/internal/rng"
)

// oracle is the membership merge as it was before the indexed, linear
// merge: every lookup a linear scan, view truncation rebuilding its
// candidate list per eviction, and subs truncation moving the tail once
// per victim. Its methods are kept verbatim in substance so the property
// test below can demand identical draws and identical results.
type oracle struct {
	self   proto.ProcessID
	cfg    Config
	view   []Entry
	subs   []proto.ProcessID
	unsubs *buffer.UnsubList
	keep   []proto.ProcessID
	rng    *rng.Source

	keepBits idmap.Bitset
}

func newOracle(self proto.ProcessID, cfg Config, r *rng.Source) *oracle {
	o := &oracle{self: self, cfg: cfg, unsubs: buffer.NewUnsubList(), rng: r}
	for _, q := range cfg.Prioritary {
		if q != self {
			o.keep = append(o.keep, q)
			o.viewAdd(q)
		}
	}
	return o
}

func (o *oracle) viewIndexOf(p proto.ProcessID) int {
	for i := range o.view {
		if o.view[i].Process == p {
			return i
		}
	}
	return -1
}

func (o *oracle) viewAdd(p proto.ProcessID) {
	if p == o.self || p == proto.NilProcess || o.viewIndexOf(p) >= 0 {
		return
	}
	o.view = append(o.view, Entry{Process: p, Weight: 1})
}

func (o *oracle) viewRemoveAt(i int) Entry {
	e := o.view[i]
	last := len(o.view) - 1
	if i != last {
		o.view[i] = o.view[last]
	}
	o.view = o.view[:last]
	return e
}

func (o *oracle) subsAdd(p proto.ProcessID) {
	for _, q := range o.subs {
		if q == p {
			return
		}
	}
	o.subs = append(o.subs, p)
}

func (o *oracle) subsRemove(p proto.ProcessID) {
	for i, q := range o.subs {
		if q == p {
			o.subs = append(o.subs[:i], o.subs[i+1:]...)
			return
		}
	}
}

func (o *oracle) weight(p proto.ProcessID) int {
	if i := o.viewIndexOf(p); i >= 0 {
		return o.view[i].Weight
	}
	return 0
}

func (o *oracle) truncate(max int, keep []proto.ProcessID, weighted bool, r *rng.Source) []proto.ProcessID {
	var removed []proto.ProcessID
	if len(o.view) > max && len(keep) > 0 {
		o.keepBits.Clear()
		o.keepBits.Grow(len(o.view))
		for i := range o.view {
			for _, k := range keep {
				if o.view[i].Process == k {
					o.keepBits.Set(i)
					break
				}
			}
		}
	}
	for len(o.view) > max {
		var cands []int
		for i := range o.view {
			if len(keep) == 0 || !o.keepBits.Get(i) {
				cands = append(cands, i)
			}
		}
		if len(cands) == 0 {
			break
		}
		var victim int
		if weighted {
			best := []int{cands[0]}
			for _, i := range cands[1:] {
				switch w := o.view[i].Weight; {
				case w > o.view[best[0]].Weight:
					best = best[:1]
					best[0] = i
				case w == o.view[best[0]].Weight:
					best = append(best, i)
				}
			}
			victim = best[r.Intn(len(best))]
		} else {
			victim = cands[r.Intn(len(cands))]
		}
		if len(keep) > 0 {
			o.keepBits.Move(len(o.view)-1, victim)
		}
		removed = append(removed, o.viewRemoveAt(victim).Process)
	}
	return removed
}

func (o *oracle) truncateView() {
	for _, p := range o.truncate(o.cfg.MaxView, o.keep, o.cfg.Policy == Weighted, o.rng) {
		o.subsAdd(p)
	}
}

func (o *oracle) truncateSubs() {
	if o.cfg.Policy != Weighted {
		for len(o.subs) > o.cfg.MaxSubs {
			i := o.rng.Intn(len(o.subs))
			o.subs = append(o.subs[:i], o.subs[i+1:]...)
		}
		return
	}
	for len(o.subs) > o.cfg.MaxSubs {
		victim := o.subs[0]
		best := o.weight(victim)
		ties := 1
		for _, p := range o.subs[1:] {
			switch w := o.weight(p); {
			case w > best:
				victim, best, ties = p, w, 1
			case w == best:
				ties++
				if o.rng.Intn(ties) == 0 {
					victim = p
				}
			}
		}
		o.subsRemove(victim)
	}
}

func (o *oracle) Seed(ps []proto.ProcessID) {
	for _, p := range ps {
		o.viewAdd(p)
	}
	o.truncateView()
	o.truncateSubs()
}

func (o *oracle) ApplySubs(subs []proto.ProcessID) {
	for _, p := range subs {
		if p == o.self || p == proto.NilProcess {
			continue
		}
		if i := o.viewIndexOf(p); i >= 0 {
			if o.cfg.Policy == Weighted {
				o.view[i].Weight++
			}
			continue
		}
		o.viewAdd(p)
		o.subsAdd(p)
	}
	o.truncateView()
	o.truncateSubs()
}

func (o *oracle) ApplyUnsubs(unsubs []proto.Unsubscription, now uint64) {
	for _, u := range unsubs {
		if u.Process == o.self {
			continue
		}
		if o.cfg.UnsubTTL > 0 && now >= o.cfg.UnsubTTL && u.Stamp < now-o.cfg.UnsubTTL {
			continue
		}
		if i := o.viewIndexOf(u.Process); i >= 0 {
			o.viewRemoveAt(i)
		}
		o.subsRemove(u.Process)
		o.unsubs.Add(u)
	}
	o.unsubs.Expire(now, o.cfg.UnsubTTL)
	o.unsubs.TruncateRandomDiscard(o.cfg.MaxUnsubs, o.rng)
}

// TestMergeMatchesOracle drives the linear merge and the pre-change
// oracle with the same random gossip and demands, after every call, equal
// view entries (order and weights), an equal subs order and an equal RNG
// position. Subs lists mix duplicates, the owner, NilProcess and known
// ids, and run past the MaxSubs+1 ingress bound, which the oracle is
// given pre-trimmed. Failures name their seed.
func TestMergeMatchesOracle(t *testing.T) {
	t.Parallel()
	const self = proto.ProcessID(1)
	shapes := []struct{ view, subs, unsubs int }{{15, 15, 15}, {5, 8, 4}, {10, 3, 6}, {3, 20, 2}}
	for _, policy := range []Policy{Uniform, Weighted} {
		for _, keep := range [][]proto.ProcessID{nil, {2, 3}} {
			for _, shape := range shapes {
				for seed := uint64(1); seed <= 6; seed++ {
					cfg := DefaultConfig()
					cfg.MaxView, cfg.MaxSubs, cfg.MaxUnsubs = shape.view, shape.subs, shape.unsubs
					cfg.Policy = policy
					cfg.Prioritary = keep
					name := fmt.Sprintf("%v/keep=%d/l=%d,subs=%d/seed=%d", policy, len(keep), shape.view, shape.subs, seed)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						checkMergeOracle(t, self, cfg, seed)
					})
				}
			}
		}
	}
}

func checkMergeOracle(t *testing.T, self proto.ProcessID, cfg Config, seed uint64) {
	m, err := NewManager(self, cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(self, cfg, rng.New(seed))
	gen := rng.New(seed ^ 0xfeed)
	universe := 3 * (cfg.MaxView + cfg.MaxSubs)
	id := func() proto.ProcessID {
		switch gen.Intn(20) {
		case 0:
			return self
		case 1:
			return proto.NilProcess
		}
		return proto.ProcessID(2 + gen.Intn(universe))
	}
	list := func(n int) []proto.ProcessID {
		ps := make([]proto.ProcessID, n)
		for i := range ps {
			ps[i] = id()
		}
		return ps
	}
	check := func(step int, what string) {
		t.Helper()
		if got, want := m.view.list, o.view; !reflect.DeepEqual(append([]Entry{}, got...), append([]Entry{}, want...)) {
			t.Fatalf("seed %d step %d (%s): view %v, oracle %v", seed, step, what, got, want)
		}
		if got, want := m.subs.Items(), o.subs; !reflect.DeepEqual(got, append([]proto.ProcessID(nil), want...)) {
			t.Fatalf("seed %d step %d (%s): subs %v, oracle %v", seed, step, what, got, want)
		}
		if got, want := m.rng.State(), o.rng.State(); got != want {
			t.Fatalf("seed %d step %d (%s): rng state %#x, oracle %#x", seed, step, what, got, want)
		}
	}
	boot := list(gen.Intn(2*cfg.MaxView + 1))
	m.Seed(boot)
	o.Seed(boot)
	check(0, "seed")
	for step := 1; step <= 300; step++ {
		switch gen.Intn(8) {
		case 0:
			now := uint64(step)
			us := make([]proto.Unsubscription, gen.Intn(cfg.MaxUnsubs+2))
			for i := range us {
				us[i] = proto.Unsubscription{Process: id(), Stamp: now - uint64(gen.Intn(3))}
			}
			m.ApplyUnsubs(us, now)
			o.ApplyUnsubs(us, now)
			check(step, "unsubs")
		case 1:
			ps := list(gen.Intn(cfg.MaxView + 1))
			m.Seed(ps)
			o.Seed(ps)
			check(step, "seed")
		default:
			ps := list(gen.Intn(2*(cfg.MaxSubs+1) + 1))
			m.ApplySubs(ps)
			if n := cfg.MaxSubs + 1; len(ps) > n {
				ps = ps[:n]
			}
			o.ApplySubs(ps)
			check(step, "subs")
		}
	}
}
