package membership

import (
	"math/bits"

	"repro/internal/proto"
)

// pidSet is the small open-addressed hash set one merge (Manager.merge)
// indexes the view and the subs buffer through. A slot is an Entry whose
// Process is the key and whose Weight is a tag: the process's view
// position plus one (0 when it is not in the view), shifted left once,
// with the low bit set while the process is buffered in subs. The set is
// cleared at the start of every merge, so it never needs deletion;
// NilProcess, which never reaches it, marks empty slots.
//
// The table is sized once from the configured bounds (see Manager.presize)
// and only grows if a merge brings more distinct ids than those bounds
// allow, which the ingress trim rules out for gossip.
type pidSet struct {
	slots []Entry
	shift uint // 64 - log2(len(slots))
}

const inSubs = 1

// grow sizes the table for n distinct ids at a load of at most 3/4.
func (s *pidSet) grow(n int, p *Pools) {
	size := 8
	for size*3 < n*4 {
		size *= 2
	}
	if len(s.slots) >= size {
		return
	}
	if p != nil {
		s.slots = p.Entries.Make(size)
	} else {
		s.slots = make([]Entry, size)
	}
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// reset empties the set, growing it first if n distinct ids would not fit.
func (s *pidSet) reset(n int) {
	s.grow(n, nil)
	clear(s.slots)
}

// slot returns the slot holding p, inserting p with tag 0 if absent.
func (s *pidSet) slot(p proto.ProcessID) int {
	mask := len(s.slots) - 1
	i := int((uint64(p) * 0x9e3779b97f4a7c15) >> s.shift)
	for {
		switch s.slots[i].Process {
		case p:
			return i
		case proto.NilProcess:
			s.slots[i].Process = p
			return i
		}
		i = (i + 1) & mask
	}
}

// viewPos returns the view position recorded in slot i, or -1.
func (s *pidSet) viewPos(i int) int { return s.slots[i].Weight>>1 - 1 }

// setViewPos records view position pos (-1: not in the view) in slot i.
func (s *pidSet) setViewPos(i, pos int) { s.slots[i].Weight = (pos+1)<<1 | s.slots[i].Weight&inSubs }

// buffered reports whether slot i's process is in subs.
func (s *pidSet) buffered(i int) bool { return s.slots[i].Weight&inSubs != 0 }

// markBuffered records that slot i's process is in subs.
func (s *pidSet) markBuffered(i int) { s.slots[i].Weight |= inSubs }
