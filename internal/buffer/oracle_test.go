package buffer

import (
	"sort"

	"repro/internal/proto"
)

// This file keeps the event-id layer as it was before the ring archive, the
// inline origin table and the ring eventIds window: a KeyedList-backed
// archive and window, and a map-backed compact digest. It is the oracle the
// differential tests (eventids_test.go) check the current structures
// against.

// oldKeyedList is the slice-plus-map list the old archive and window were
// built on, reduced to the operations they used.
type oldKeyedList[K comparable, V any] struct {
	key   func(V) K
	idx   map[K]struct{} // nil in small mode
	items []V
}

func (l *oldKeyedList[K, V]) contains(k K) bool {
	if l.idx == nil {
		for _, v := range l.items {
			if l.key(v) == k {
				return true
			}
		}
		return false
	}
	_, ok := l.idx[k]
	return ok
}

func (l *oldKeyedList[K, V]) add(v V) bool {
	k := l.key(v)
	if l.contains(k) {
		return false
	}
	l.items = append(l.items, v)
	if l.idx != nil {
		l.idx[k] = struct{}{}
	} else if len(l.items) > smallMax {
		l.idx = make(map[K]struct{}, 2*len(l.items))
		for _, v := range l.items {
			l.idx[l.key(v)] = struct{}{}
		}
	}
	return true
}

func (l *oldKeyedList[K, V]) get(k K) (V, bool) {
	if l.idx == nil || l.contains(k) {
		for _, v := range l.items {
			if l.key(v) == k {
				return v, true
			}
		}
	}
	var zero V
	return zero, false
}

func (l *oldKeyedList[K, V]) truncateOldest(max int) {
	if max < 0 {
		max = 0
	}
	if len(l.items) <= max {
		return
	}
	n := len(l.items) - max
	for _, v := range l.items[:n] {
		delete(l.idx, l.key(v))
	}
	l.items = append(l.items[:0], l.items[n:]...)
}

// oldIDBuffer is the old eventIds window as the engine drove it: a
// duplicate-free Add followed by oldest-first truncation to max.
type oldIDBuffer struct {
	inner oldKeyedList[proto.EventID, proto.EventID]
	max   int
}

func newOldIDBuffer(max int) *oldIDBuffer {
	return &oldIDBuffer{inner: oldKeyedList[proto.EventID, proto.EventID]{key: func(id proto.EventID) proto.EventID { return id }}, max: max}
}

func (b *oldIDBuffer) Add(id proto.EventID) bool {
	added := b.inner.add(id)
	b.inner.truncateOldest(b.max)
	return added
}

func (b *oldIDBuffer) Contains(id proto.EventID) bool { return b.inner.contains(id) }
func (b *oldIDBuffer) Len() int                       { return len(b.inner.items) }
func (b *oldIDBuffer) IDs() []proto.EventID {
	if len(b.inner.items) == 0 {
		return nil
	}
	return append([]proto.EventID(nil), b.inner.items...)
}

// oldArchive is the old archive: add, then truncate to the bound.
type oldArchive struct {
	inner oldKeyedList[proto.EventID, proto.Event]
	max   int
}

func newOldArchive(max int) *oldArchive {
	return &oldArchive{inner: oldKeyedList[proto.EventID, proto.Event]{key: eventKey}, max: max}
}

func (a *oldArchive) Store(e proto.Event) {
	if a.max <= 0 {
		return
	}
	a.inner.add(e)
	a.inner.truncateOldest(a.max)
}

func (a *oldArchive) Lookup(id proto.EventID) (proto.Event, bool) { return a.inner.get(id) }
func (a *oldArchive) Len() int                                    { return len(a.inner.items) }

// oldCompactDigest is the old map-of-origins digest.
type oldCompactDigest struct {
	origins map[proto.ProcessID]oldOriginDigest
}

type oldOriginDigest struct {
	watermark uint64
	sparse    map[uint64]struct{}
}

func (d *oldCompactDigest) Contains(id proto.EventID) bool {
	od, ok := d.origins[id.Origin]
	if !ok {
		return false
	}
	if id.Seq == 0 {
		return false
	}
	if id.Seq <= od.watermark {
		return true
	}
	_, ok = od.sparse[id.Seq]
	return ok
}

func (d *oldCompactDigest) Add(id proto.EventID) bool {
	if id.Seq == 0 {
		return false
	}
	od := d.origins[id.Origin]
	if id.Seq <= od.watermark {
		return false
	}
	if _, dup := od.sparse[id.Seq]; dup {
		return false
	}
	if id.Seq == od.watermark+1 {
		od.watermark++
		for {
			if _, ok := od.sparse[od.watermark+1]; !ok {
				break
			}
			delete(od.sparse, od.watermark+1)
			od.watermark++
		}
	} else {
		if od.sparse == nil {
			od.sparse = make(map[uint64]struct{})
		}
		od.sparse[id.Seq] = struct{}{}
	}
	if d.origins == nil {
		d.origins = make(map[proto.ProcessID]oldOriginDigest)
	}
	d.origins[id.Origin] = od
	return true
}

func (d *oldCompactDigest) SparseLen() int {
	n := 0
	for _, od := range d.origins {
		n += len(od.sparse)
	}
	return n
}

func (d *oldCompactDigest) Origins() int { return len(d.origins) }

func (d *oldCompactDigest) Watermark(origin proto.ProcessID) uint64 {
	return d.origins[origin].watermark
}

func (d *oldCompactDigest) Summary() []DigestEntry {
	out := make([]DigestEntry, 0, len(d.origins))
	for origin, od := range d.origins {
		sp := make([]uint64, 0, len(od.sparse))
		for s := range od.sparse {
			sp = append(sp, s)
		}
		sort.Slice(sp, func(i, j int) bool { return sp[i] < sp[j] })
		out = append(out, DigestEntry{Origin: origin, Watermark: od.watermark, Sparse: sp})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Origin < out[j].Origin })
	return out
}

// oldEmission is the old engine's compact-mode emission, derived from
// Summary: the sparse ids by origin and sequence number, then the non-zero
// watermarks by origin.
func oldEmission(d *oldCompactDigest) (sparse, watermarks []proto.EventID) {
	for _, entry := range d.Summary() {
		for _, seq := range entry.Sparse {
			sparse = append(sparse, proto.EventID{Origin: entry.Origin, Seq: seq})
		}
		if entry.Watermark > 0 {
			watermarks = append(watermarks, proto.EventID{Origin: entry.Origin, Seq: entry.Watermark})
		}
	}
	return sparse, watermarks
}
