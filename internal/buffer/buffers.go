package buffer

import (
	"math/bits"

	"repro/internal/pool"
	"repro/internal/proto"
	"repro/internal/rng"
)

// Pools groups the size-classed arenas that back the protocol buffers'
// slices during bulk construction. A Pools value is shard-local: it is
// not safe for concurrent use, and a sharded build gives each worker its
// own (see pool package docs).
type Pools struct {
	PIDs   pool.Arena[proto.ProcessID]
	Events pool.Arena[proto.Event]
	IDs    pool.Arena[proto.EventID]
	Unsubs pool.Arena[proto.Unsubscription]
	Words  pool.Arena[uint64]
}

// Stats aggregates the arenas' counters.
func (p *Pools) Stats() pool.Stats {
	var s pool.Stats
	s.Add(p.PIDs.Stats())
	s.Add(p.Events.Stats())
	s.Add(p.IDs.Stats())
	s.Add(p.Unsubs.Stats())
	s.Add(p.Words.Stats())
	return s
}

// Static key functions shared by every buffer instance (a capture-free
// func literal would also be static, but naming them makes that explicit).
func unsubKey(u proto.Unsubscription) proto.ProcessID { return u.Process }
func eventKey(e proto.Event) proto.EventID            { return e.ID }

// PIDList is a bounded, duplicate-free list of process identifiers — the
// representation of the subs buffer — backed by a plain slice, which at
// its high-water capacity never reallocates. It keeps no index of its
// own: the membership merge, its hot-path writer, checks new ids against
// one set covering both the view and subs and then uses Append, and
// random truncation compacts the slice once. Remove scans the slice,
// which is bounded by |subs|m plus one gossip's inflow.
type PIDList struct {
	items []proto.ProcessID
	alive []uint64 // truncation scratch: one bit per item, set while kept
}

// NewPIDList creates an empty PIDList.
func NewPIDList() *PIDList { return &PIDList{} }

// indexOf returns p's position, or -1.
func (l *PIDList) indexOf(p proto.ProcessID) int {
	for i, q := range l.items {
		if q == p {
			return i
		}
	}
	return -1
}

// Append appends p, which the caller knows is absent: the list keeps no
// index, so callers track membership themselves (see PIDList).
func (l *PIDList) Append(p proto.ProcessID) { l.items = append(l.items, p) }

// Remove deletes p, preserving the order of the rest. It reports whether
// an element was removed.
func (l *PIDList) Remove(p proto.ProcessID) bool {
	i := l.indexOf(p)
	if i < 0 {
		return false
	}
	l.items = append(l.items[:i], l.items[i+1:]...)
	return true
}

// Len returns the number of buffered identifiers.
func (l *PIDList) Len() int { return len(l.items) }

// At returns the i-th identifier in insertion order.
func (l *PIDList) At(i int) proto.ProcessID { return l.items[i] }

// Items returns a copy of the identifiers in insertion order.
func (l *PIDList) Items() []proto.ProcessID {
	if len(l.items) == 0 {
		return nil
	}
	return append([]proto.ProcessID(nil), l.items...)
}

// AppendItems appends the identifiers in insertion order to dst.
func (l *PIDList) AppendItems(dst []proto.ProcessID) []proto.ProcessID {
	return append(dst, l.items...)
}

// Grow pre-allocates capacity for n identifiers and their truncation
// scratch.
func (l *PIDList) Grow(n int) {
	if cap(l.items) < n {
		items := make([]proto.ProcessID, len(l.items), n)
		copy(items, l.items)
		l.items = items
	}
	if w := words(n); cap(l.alive) < w {
		l.alive = make([]uint64, w)
	}
}

// GrowIn pre-allocates capacity for n identifiers and their truncation
// scratch from pooled arenas.
func (l *PIDList) GrowIn(n int, p *Pools) {
	if cap(l.items) < n {
		items := p.PIDs.Make(n)[:len(l.items)]
		copy(items, l.items)
		l.items = items
	}
	if w := words(n); cap(l.alive) < w {
		l.alive = p.Words.Make(w)
	}
}

// words is the number of 64-bit words covering n bits.
func words(n int) int { return (n + 63) >> 6 }

// TruncateRandomDiscard removes uniformly chosen identifiers until
// Len() <= max, preserving the order of the rest, and returns how many it
// removed. Draw j is r.Intn(Len()-j) and picks the j-th victim's position
// among the survivors in order, exactly as removing one victim at a time
// would; each draw is mapped to its original position through a bitmask
// of survivors, and the list is compacted once at the end.
func (l *PIDList) TruncateRandomDiscard(max int, r *rng.Source) int {
	if max < 0 {
		max = 0
	}
	n := len(l.items)
	if n <= max {
		return 0
	}
	w := words(n)
	if cap(l.alive) < w {
		l.alive = make([]uint64, w)
	}
	alive := l.alive[:w]
	for i := range alive {
		alive[i] = ^uint64(0)
	}
	if n&63 != 0 {
		alive[w-1] = 1<<(n&63) - 1
	}
	for left := n; left > max; left-- {
		k := r.Intn(left)
		i := 0
		for c := bits.OnesCount64(alive[i]); k >= c; c = bits.OnesCount64(alive[i]) {
			k -= c
			i++
		}
		alive[i] &^= 1 << selectBit(alive[i], k)
	}
	kept := 0
	for i, p := range l.items {
		l.items[kept] = p
		kept += int(alive[i>>6] >> (i & 63) & 1)
	}
	l.items = l.items[:kept]
	return n - kept
}

// selectBit returns the position of x's k-th (0-based) set bit; x has more
// than k set bits. It is branch-free, since k is a fresh random draw each
// time: byte-wise popcounts summed by one multiply locate the byte, and a
// table selects within it.
func selectBit(x uint64, k int) int {
	const (
		ones = 0x0101010101010101
		high = 0x8080808080808080
	)
	c := x - x>>1&0x5555555555555555
	c = c&0x3333333333333333 + c>>2&0x3333333333333333
	c = (c + c>>4) & 0x0f0f0f0f0f0f0f0f
	sums := c * ones // byte b: set bits in bytes 0..b
	// Bytes whose running count is at most k lie wholly before the bit.
	at := bits.OnesCount64(((uint64(k)*ones|high)-sums)&high) * 8
	rank := k - int(sums<<8>>at&0xff)
	return at + int(selectInByte[rank<<8|int(x>>at&0xff)])
}

// selectInByte[r<<8|b] is the position of byte b's r-th set bit.
var selectInByte = func() (t [8 << 8]uint8) {
	for b := 0; b < 256; b++ {
		r := 0
		for i := 0; i < 8; i++ {
			if b>>i&1 != 0 {
				t[r<<8|b] = uint8(i)
				r++
			}
		}
	}
	return t
}()

// UnsubList is a bounded, duplicate-free list of unsubscriptions keyed by
// process — the representation of the unSubs buffer. Re-adding an
// unsubscription for a process already present keeps the newer stamp, so a
// re-issued unsubscription refreshes its TTL.
type UnsubList struct {
	inner KeyedList[proto.ProcessID, proto.Unsubscription]
}

// NewUnsubList creates an empty UnsubList.
func NewUnsubList() *UnsubList {
	l := &UnsubList{}
	l.Init()
	return l
}

// Init prepares a zero-value UnsubList in place, allocation-free.
func (l *UnsubList) Init() { l.inner.Init(unsubKey) }

// Add inserts u, or refreshes the stamp of an existing entry if u is newer.
// It reports whether the set of processes changed.
func (l *UnsubList) Add(u proto.Unsubscription) bool {
	if cur, ok := l.inner.Get(u.Process); ok {
		if u.Stamp > cur.Stamp {
			l.inner.Remove(u.Process)
			l.inner.Add(u)
		}
		return false
	}
	return l.inner.Add(u)
}

// Contains reports whether an unsubscription for p is buffered.
func (l *UnsubList) Contains(p proto.ProcessID) bool { return l.inner.Contains(p) }

// Len returns the number of buffered unsubscriptions.
func (l *UnsubList) Len() int { return l.inner.Len() }

// Items returns a copy of the unsubscriptions in insertion order.
func (l *UnsubList) Items() []proto.Unsubscription { return l.inner.Items() }

// AppendItems appends the unsubscriptions in insertion order to dst.
func (l *UnsubList) AppendItems(dst []proto.Unsubscription) []proto.Unsubscription {
	return l.inner.AppendItems(dst)
}

// AppendFresh appends the unsubscriptions that Expire(now, ttl) would keep,
// in insertion order, without removing anything: the read-only sibling of
// Expire-then-AppendItems for speculative emission paths that must be able
// to roll back. The skip predicate matches Expire exactly, so AppendFresh
// followed by Expire produces the same gossip content and final buffer as
// the destructive order.
func (l *UnsubList) AppendFresh(dst []proto.Unsubscription, now, ttl uint64) []proto.Unsubscription {
	if now < ttl {
		return l.inner.AppendItems(dst)
	}
	for i, ln := 0, l.inner.Len(); i < ln; i++ {
		u := l.inner.At(i)
		if u.Stamp < now-ttl {
			continue
		}
		dst = append(dst, u)
	}
	return dst
}

// TruncateRandom removes random entries until Len() <= max.
func (l *UnsubList) TruncateRandom(max int, r *rng.Source) []proto.Unsubscription {
	return l.inner.TruncateRandom(max, r)
}

// TruncateRandomDiscard removes random entries until Len() <= max,
// returning only the count (same draws as TruncateRandom, no allocation).
func (l *UnsubList) TruncateRandomDiscard(max int, r *rng.Source) int {
	return l.inner.TruncateRandomDiscard(max, r)
}

// Grow pre-allocates capacity for n entries.
func (l *UnsubList) Grow(n int) { l.inner.Grow(n) }

// GrowIn pre-allocates capacity for n entries from a pooled arena.
func (l *UnsubList) GrowIn(n int, p *Pools) { l.inner.GrowIn(n, &p.Unsubs) }

// Expire drops every unsubscription whose stamp is older than now-ttl
// (§3.4: "After a certain time, the unsubscription becomes obsolete").
// It returns the number of entries dropped.
func (l *UnsubList) Expire(now, ttl uint64) int {
	dropped := 0
	if now < ttl {
		return 0
	}
	// Backwards so removals cannot skip entries; no snapshot allocation on
	// the per-tick emission path.
	for i := l.inner.Len() - 1; i >= 0; i-- {
		u := l.inner.At(i)
		if u.Stamp < now-ttl {
			l.inner.Remove(u.Process)
			dropped++
		}
	}
	return dropped
}

// Remove deletes the unsubscription for p, if any.
func (l *UnsubList) Remove(p proto.ProcessID) bool { return l.inner.Remove(p) }

// EventBuffer is the bounded events buffer: notifications received for the
// first time since the last outgoing gossip, truncated randomly.
type EventBuffer struct {
	inner KeyedList[proto.EventID, proto.Event]
}

// NewEventBuffer creates an empty EventBuffer.
func NewEventBuffer() *EventBuffer {
	b := &EventBuffer{}
	b.Init()
	return b
}

// Init prepares a zero-value EventBuffer in place, allocation-free.
func (b *EventBuffer) Init() { b.inner.Init(eventKey) }

// Add inserts e unless already present, reporting whether it was added.
func (b *EventBuffer) Add(e proto.Event) bool { return b.inner.Add(e) }

// Contains reports whether the buffer holds an event with the given id.
func (b *EventBuffer) Contains(id proto.EventID) bool { return b.inner.Contains(id) }

// Len returns the number of buffered events.
func (b *EventBuffer) Len() int { return b.inner.Len() }

// Items returns a copy of the buffered events in insertion order.
func (b *EventBuffer) Items() []proto.Event { return b.inner.Items() }

// AppendItems appends the buffered events in insertion order to dst.
func (b *EventBuffer) AppendItems(dst []proto.Event) []proto.Event {
	return b.inner.AppendItems(dst)
}

// TruncateRandom removes random events until Len() <= max.
func (b *EventBuffer) TruncateRandom(max int, r *rng.Source) []proto.Event {
	return b.inner.TruncateRandom(max, r)
}

// TruncateRandomDiscard removes random events until Len() <= max,
// returning only the count (same draws as TruncateRandom, no allocation).
func (b *EventBuffer) TruncateRandomDiscard(max int, r *rng.Source) int {
	return b.inner.TruncateRandomDiscard(max, r)
}

// Grow pre-allocates capacity for n events.
func (b *EventBuffer) Grow(n int) { b.inner.Grow(n) }

// GrowIn pre-allocates capacity for n events from a pooled arena.
func (b *EventBuffer) GrowIn(n int, p *Pools) { b.inner.GrowIn(n, &p.Events) }

// Remove deletes the event with the given id, reporting whether it was
// present (used by weighted eviction policies).
func (b *EventBuffer) Remove(id proto.EventID) bool { return b.inner.Remove(id) }

// Clear empties the buffer ("events ← ∅" after each gossip emission).
func (b *EventBuffer) Clear() { b.inner.Clear() }
