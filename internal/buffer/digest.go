package buffer

import (
	"cmp"
	"math/bits"
	"math/rand/v2"
	"slices"

	"repro/internal/proto"
)

// CompactDigest is the paper's §3.2 optimization of the eventIds buffer:
// because identifiers embed their originator and a per-origin sequence
// number, the buffer "can be optimized by only retaining for each sender
// the identifiers of notifications delivered since the last one delivered
// in sequence". Per origin we keep a watermark W — every sequence number
// <= W has been delivered — plus the sparse set of delivered sequence
// numbers above W.
//
// Compared to the flat IDBuffer, membership information about an in-order
// prefix of each origin's stream costs O(1) instead of O(prefix length).
//
// The origins live inline in an open-addressed table (linear probing, load
// at most 3/4), so Contains of an id at or below its origin's watermark, or
// of an unknown origin, costs exactly one probe. Origins come from peers,
// so the table hashes with a random key of its own (see mix): a peer
// cannot pick origins that pile into one probe run, as it could against a
// fixed multiplier. Each origin's sparse set is a map made on its first
// out-of-order delivery: nil for an origin that only ever delivers in
// order, O(1) expected at any size. Emission sorts the origins in retained
// scratch.
//
// The zero value is an empty digest that allocates nothing until its first
// Add. Seq 0 and NilProcess (the empty-slot marker) are never stored.
type CompactDigest struct {
	slots   []originSlot      // len 0 or a power of two
	key     uint64            // random hash key, drawn with the first table
	shift   uint8             // 64 - log2(len(slots))
	origins int               // occupied slots
	sparse  int               // total ids across the sparse sets
	sorted  []proto.ProcessID // emission scratch: the origins, ascending
}

// originSlot is one origin's compacted state; origin == NilProcess marks
// an empty slot, whose zero watermark and nil sparse set contain nothing.
type originSlot struct {
	origin    proto.ProcessID
	watermark uint64              // all seq in [1..watermark] delivered
	sparse    map[uint64]struct{} // delivered seq above watermark
}

// minOriginSlots is the table size of a digest's first origin.
const minOriginSlots = 8

// NewCompactDigest creates an empty digest.
func NewCompactDigest() *CompactDigest {
	return &CompactDigest{}
}

// find returns the position of origin's slot, or of the empty slot its
// probe ends at. The table must be non-empty.
func (d *CompactDigest) find(origin proto.ProcessID) int {
	mask := len(d.slots) - 1
	i := int(mix(uint64(origin), d.key) >> d.shift)
	for {
		if o := d.slots[i].origin; o == origin || o == proto.NilProcess {
			return i
		}
		i = (i + 1) & mask
	}
}

// Contains reports whether id has been recorded. Sequence numbering starts
// at 1; seq 0 is never contained.
func (d *CompactDigest) Contains(id proto.EventID) bool {
	if id.Seq == 0 || len(d.slots) == 0 {
		return false
	}
	s := &d.slots[d.find(id.Origin)]
	if id.Seq <= s.watermark {
		return true
	}
	if len(s.sparse) == 0 {
		return false
	}
	_, ok := s.sparse[id.Seq]
	return ok
}

// Add records id, reporting whether it was new. Contiguous sparse entries
// are absorbed into the watermark.
func (d *CompactDigest) Add(id proto.EventID) bool {
	if id.Seq == 0 || id.Origin == proto.NilProcess {
		return false
	}
	s := d.slot(id.Origin)
	if id.Seq <= s.watermark {
		return false
	}
	// watermark+1 is never sparse: it would have been absorbed.
	if id.Seq == s.watermark+1 {
		s.watermark++
		for len(s.sparse) > 0 {
			if _, ok := s.sparse[s.watermark+1]; !ok {
				break
			}
			delete(s.sparse, s.watermark+1)
			s.watermark++
			d.sparse--
		}
		return true
	}
	if _, dup := s.sparse[id.Seq]; dup {
		return false
	}
	if s.sparse == nil {
		s.sparse = make(map[uint64]struct{})
	}
	s.sparse[id.Seq] = struct{}{}
	d.sparse++
	return true
}

// slot returns origin's slot, claiming one for a new origin.
func (d *CompactDigest) slot(origin proto.ProcessID) *originSlot {
	if len(d.slots) == 0 {
		d.key = rand.Uint64()
		d.rehash(minOriginSlots)
	}
	i := d.find(origin)
	if d.slots[i].origin == origin {
		return &d.slots[i]
	}
	if 4*(d.origins+1) > 3*len(d.slots) {
		d.rehash(2 * len(d.slots))
		i = d.find(origin)
	}
	d.slots[i].origin = origin
	d.origins++
	return &d.slots[i]
}

// rehash moves every origin into a fresh table of n slots.
func (d *CompactDigest) rehash(n int) {
	old := d.slots
	d.slots = make([]originSlot, n)
	d.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	for _, s := range old {
		if s.origin != proto.NilProcess {
			d.slots[d.find(s.origin)] = s
		}
	}
}

// SparseLen returns the total number of explicitly retained (out-of-order)
// identifiers across all origins — the memory the compaction saves shows up
// as the gap between this and a flat buffer's length.
func (d *CompactDigest) SparseLen() int { return d.sparse }

// Origins returns the number of tracked origins.
func (d *CompactDigest) Origins() int { return d.origins }

// Watermark returns the contiguous delivered prefix for origin.
func (d *CompactDigest) Watermark(origin proto.ProcessID) uint64 {
	if len(d.slots) == 0 {
		return 0
	}
	return d.slots[d.find(origin)].watermark
}

// sortedOrigins returns the tracked origins, ascending, in retained
// scratch.
func (d *CompactDigest) sortedOrigins() []proto.ProcessID {
	d.sorted = d.sorted[:0]
	for i := range d.slots {
		if o := d.slots[i].origin; o != proto.NilProcess {
			d.sorted = append(d.sorted, o)
		}
	}
	slices.Sort(d.sorted)
	return d.sorted
}

// AppendDigest appends the digest a gossip advertises: every sparse id to
// ids and one {origin, watermark} id per origin with a non-zero watermark
// to watermarks, ascending by origin and then by sequence number. Origins
// are sorted in retained scratch and each origin's ids in place in ids, so
// the call allocates nothing once the slices have capacity.
func (d *CompactDigest) AppendDigest(ids, watermarks []proto.EventID) ([]proto.EventID, []proto.EventID) {
	for _, o := range d.sortedOrigins() {
		s := &d.slots[d.find(o)]
		if s.watermark > 0 {
			watermarks = append(watermarks, proto.EventID{Origin: o, Seq: s.watermark})
		}
		start := len(ids)
		for seq := range s.sparse {
			ids = append(ids, proto.EventID{Origin: o, Seq: seq})
		}
		slices.SortFunc(ids[start:], func(a, b proto.EventID) int { return cmp.Compare(a.Seq, b.Seq) })
	}
	return ids, watermarks
}

// Summary lists, per origin, the watermark and the ascending sparse
// sequence numbers. The slice is ordered by origin for determinism. It
// allocates; emission uses AppendDigest.
func (d *CompactDigest) Summary() []DigestEntry {
	out := make([]DigestEntry, 0, d.origins)
	for _, o := range d.sortedOrigins() {
		s := &d.slots[d.find(o)]
		sp := make([]uint64, 0, len(s.sparse))
		for seq := range s.sparse {
			sp = append(sp, seq)
		}
		slices.Sort(sp)
		out = append(out, DigestEntry{Origin: o, Watermark: s.watermark, Sparse: sp})
	}
	return out
}

// DigestEntry is one origin's compacted digest state.
type DigestEntry struct {
	Origin    proto.ProcessID
	Watermark uint64
	Sparse    []uint64
}
