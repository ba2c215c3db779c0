package buffer

import (
	"math/bits"
	"math/rand/v2"

	"repro/internal/proto"
)

// IDBuffer is the flat representation of eventIds: the |eventIds|m most
// recently delivered notification identifiers, evicted oldest first. This
// is exactly the structure whose maximum size drives the reliability
// measurements of Fig. 6(b).
//
// The window is a ring: Push appends in O(1), overwriting the oldest id once
// the window is full, and never rescans — its caller records only ids it
// has just found unknown. Contains and the duplicate-checking Add scan the
// window, which is bounded by |eventIds|m.
type IDBuffer struct {
	ids  []proto.EventID // the window; once full, the oldest id is at head
	head int
	max  int
}

// NewIDBuffer creates an empty IDBuffer holding at most max identifiers.
func NewIDBuffer(max int) *IDBuffer {
	b := &IDBuffer{}
	b.Init(max)
	if max > 0 {
		b.ids = make([]proto.EventID, 0, max)
	}
	return b
}

// Init prepares a zero-value IDBuffer holding at most max identifiers in
// place, allocation-free.
func (b *IDBuffer) Init(max int) { b.max = max }

// GrowIn pre-allocates the full window from a pooled arena.
func (b *IDBuffer) GrowIn(p *Pools) {
	if b.max > 0 && cap(b.ids) < b.max {
		b.ids = append(p.IDs.Make(b.max)[:0], b.ids...)
	}
}

// Push appends id, which the caller knows is absent, evicting the oldest
// identifier when the window is full ("remove oldest element from
// eventIds").
func (b *IDBuffer) Push(id proto.EventID) {
	if len(b.ids) < b.max {
		b.ids = append(b.ids, id)
		return
	}
	if b.max <= 0 {
		return
	}
	b.ids[b.head] = id
	if b.head++; b.head == len(b.ids) {
		b.head = 0
	}
}

// Add pushes id unless present, reporting whether it was added.
func (b *IDBuffer) Add(id proto.EventID) bool {
	if b.Contains(id) {
		return false
	}
	b.Push(id)
	return true
}

// Contains reports whether id is in the window.
func (b *IDBuffer) Contains(id proto.EventID) bool {
	for _, x := range b.ids {
		if x == id {
			return true
		}
	}
	return false
}

// Len returns the number of buffered identifiers.
func (b *IDBuffer) Len() int { return len(b.ids) }

// IDs returns a copy of the identifiers, oldest first.
func (b *IDBuffer) IDs() []proto.EventID {
	if len(b.ids) == 0 {
		return nil
	}
	return b.AppendIDs(make([]proto.EventID, 0, len(b.ids)))
}

// AppendIDs appends the identifiers, oldest first, to dst.
func (b *IDBuffer) AppendIDs(dst []proto.EventID) []proto.EventID {
	return append(append(dst, b.ids[b.head:]...), b.ids[:b.head]...)
}

// Archive is the bounded store of older notifications kept "only ... to
// satisfy retransmission requests" (§3.2). Eviction is oldest-first.
//
// The events live in a ring that grows by doubling up to the bound, so a
// large archive (a Logger's) is not allocated up front. An open-addressed
// index of ring positions keyed by event id (linear probing, load at most
// 1/2, backward-shift deletion) makes Lookup one probe, and Store two — the
// new id, then the evicted one — plus an overwrite of the oldest event;
// neither allocates once the ring has reached the bound. Event ids come
// from peers, so the index hashes with a random key of its own (see mix).
type Archive struct {
	ring  []proto.Event // grown by doubling; once full at max, the oldest is at head
	index []uint32      // ring position + 1 per slot, 0 = empty; len a power of two
	key   uint64        // random odd hash key, drawn with the first index
	shift uint8         // 64 - log2(len(index))
	n     int
	head  int
	max   int
}

// minArchiveRing is the ring capacity of an archive's first event.
const minArchiveRing = 8

// NewArchive creates an archive bounded at max events; max <= 0 disables
// archiving entirely (Lookup always misses).
func NewArchive(max int) *Archive {
	a := &Archive{}
	a.Init(max)
	return a
}

// Init prepares a zero-value Archive in place, allocation-free.
func (a *Archive) Init(max int) { *a = Archive{max: max} }

// probe returns the index position holding id, or the empty position its
// probe ends at. The index must be non-empty.
func (a *Archive) probe(id proto.EventID) int {
	mask := len(a.index) - 1
	for i := a.home(id); ; i = (i + 1) & mask {
		p := a.index[i]
		if p == 0 || a.ring[p-1].ID == id {
			return i
		}
	}
}

// home is id's preferred index position. The fold of origin and seq is
// keyed too: with a fixed one, a peer could pick ids that fold equal.
func (a *Archive) home(id proto.EventID) int {
	return int(mix(uint64(id.Origin)*a.key+id.Seq, a.key) >> a.shift)
}

// mix hashes x under key, a random number drawn per table: wyhash's mum,
// the high and low halves of the 64×64→128-bit product of x^key and a
// fixed odd constant, folded. Unlike a bare multiply by a fixed constant,
// whose collisions anyone can compute (keys i·K⁻¹ all share a home), the
// key leaves a peer no way to pick keys that pile into one probe run, and
// the constant spreads sequential, strided and shifted keys like random
// ones. The top bits are the table position.
func mix(x, key uint64) uint64 {
	hi, lo := bits.Mul64(x^key, 0x9E3779B97F4A7C15)
	return hi ^ lo
}

// Store retains e for future retransmission, evicting the oldest event to
// respect the bound. Storing an id already archived keeps the first copy.
func (a *Archive) Store(e proto.Event) {
	if a.max <= 0 {
		return
	}
	if a.n == len(a.ring) && a.n < a.max {
		a.grow(min(max(2*a.n, minArchiveRing), a.max))
	}
	i := a.probe(e.ID)
	if a.index[i] != 0 {
		return
	}
	if a.n < a.max {
		a.ring[a.n] = e
		a.index[i] = uint32(a.n) + 1
		a.n++
		return
	}
	// Index the new event in the oldest one's ring position, then drop the
	// oldest one's entry: the ring already holds e there, so every entry
	// the deletion shifts hashes by its own id.
	oldest := a.probe(a.ring[a.head].ID)
	a.ring[a.head] = e
	a.index[i] = uint32(a.head) + 1
	a.unindex(oldest)
	if a.head++; a.head == a.max {
		a.head = 0
	}
}

// unindex empties index position h, shifting each later entry of its
// probe run back into the hole when its home allows, so every remaining
// entry stays reachable without tombstones.
func (a *Archive) unindex(h int) {
	mask := len(a.index) - 1
	for j := (h + 1) & mask; a.index[j] != 0; j = (j + 1) & mask {
		if (j-a.home(a.ring[a.index[j]-1].ID))&mask >= (j-h)&mask {
			a.index[h] = a.index[j]
			h = j
		}
	}
	a.index[h] = 0
}

// grow resizes the ring to c events, all held events staying in place
// (growth happens only before the ring first wraps), and rebuilds the
// index at load at most 1/2. The index keeps at least four positions, so
// it has an empty one even while Store momentarily indexes max+1 events.
func (a *Archive) grow(c int) {
	ring := make([]proto.Event, c)
	copy(ring, a.ring[:a.n])
	a.ring = ring
	if a.index == nil {
		a.key = rand.Uint64() | 1 // odd: origin·key is one-to-one
	}
	n := max(4, 1<<bits.Len(uint(2*c-1)))
	a.index = make([]uint32, n)
	a.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	for p := 0; p < a.n; p++ {
		a.index[a.probe(a.ring[p].ID)] = uint32(p) + 1
	}
}

// Lookup returns the archived event with the given id.
func (a *Archive) Lookup(id proto.EventID) (proto.Event, bool) {
	if a.n == 0 {
		return proto.Event{}, false
	}
	if p := a.index[a.probe(id)]; p != 0 {
		return a.ring[p-1], true
	}
	return proto.Event{}, false
}

// Len returns the number of archived events.
func (a *Archive) Len() int { return a.n }
