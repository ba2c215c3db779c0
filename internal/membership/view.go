// Package membership implements lpbcast's gossip-based partial-view
// membership (§3 of the paper) as a separable layer, as argued in §6.2:
// every process keeps a bounded random view of the system, updated purely
// from subscriptions and unsubscriptions piggybacked on gossip messages.
//
// Two truncation policies are provided: the paper's default uniform random
// truncation (Fig. 1(a)) and the weighted heuristic of §6.1, which tracks
// per-entry "awareness" weights and preferentially evicts well-known
// processes to push the in-degree distribution towards uniform.
//
// The package also provides the view-graph analyses used by the evaluation:
// weakly-connected-component counting (the paper's partition notion, §4.4)
// and in-degree statistics (the uniformity discussion of §6.1).
package membership

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/idmap"
	"repro/internal/proto"
	"repro/internal/rng"
)

// Entry is one view slot: a known process and its awareness weight. The
// weight counts how often the process was (re-)announced to us — a proxy
// for "how well known" it is (§6.1). Uniform policy ignores weights.
type Entry struct {
	Process proto.ProcessID
	Weight  int
}

// View is a bounded, duplicate-free set of processes with per-entry
// weights. It never contains its owner. The entries are a plain slice
// pre-sized to l plus one gossip's inflow, so the per-message add/evict
// churn never reallocates. The View keeps no index: the membership
// merge (Manager.merge), its hot-path writer, looks entries up through
// one set over view and subs and appends directly, so a gossip costs
// O(l + |subs|m). Add, Contains and Remove scan the slice; they serve
// the prioritary set, diagnostics and unsubscription.
//
// View is not safe for concurrent use.
type View struct {
	owner proto.ProcessID
	list  []Entry

	pickScratch []int        // reused by AppendPick
	keepBits    idmap.Bitset // reused by truncate (kept positions)
}

// NewView creates an empty view owned by owner. The owner can never be
// added to its own view (§4.1, footnote 8).
func NewView(owner proto.ProcessID) *View {
	return &View{owner: owner}
}

// Init prepares a zero-value view in place — the allocation-free sibling
// of NewView for views embedded in pooled blocks.
func (v *View) Init(owner proto.ProcessID) { v.owner = owner }

// Owner returns the owning process.
func (v *View) Owner() proto.ProcessID { return v.owner }

// Grow pre-allocates the entry list and every truncation scratch buffer
// for at least n entries. Sizing a view to its transient
// bound (l plus one gossip's subscription inflow) at construction keeps
// the per-message ApplySubs/truncate path from ever reallocating — without
// it, thousands of views grow their buffers toward the high-water mark one
// append at a time, a convergence tail that dominates steady-state
// allocation in large simulations.
func (v *View) Grow(n int) { v.growIn(n, nil) }

// GrowIn is Grow with every backing slice drawn from pooled arenas, so
// pre-sizing thousands of per-process views costs amortized chunk
// allocations instead of five heap allocations each.
func (v *View) GrowIn(n int, p *Pools) { v.growIn(n, p) }

func (v *View) growIn(n int, p *Pools) {
	if cap(v.list) < n {
		var list []Entry
		if p != nil {
			list = p.Entries.Make(n)[:len(v.list)]
		} else {
			list = make([]Entry, len(v.list), n)
		}
		copy(list, v.list)
		v.list = list
	}
	if cap(v.pickScratch) < n {
		if p != nil {
			v.pickScratch = p.Ints.Make(n)[:0]
		} else {
			v.pickScratch = make([]int, 0, n)
		}
	}
}

// indexOf returns p's position in the entry list, or -1.
func (v *View) indexOf(p proto.ProcessID) int {
	for i := range v.list {
		if v.list[i].Process == p {
			return i
		}
	}
	return -1
}

// Add inserts p with weight 1, reporting whether it was added. Adding the
// owner or a duplicate is a no-op returning false.
func (v *View) Add(p proto.ProcessID) bool {
	if p == v.owner || p == proto.NilProcess {
		return false
	}
	if v.indexOf(p) >= 0 {
		return false
	}
	v.list = append(v.list, Entry{Process: p, Weight: 1})
	return true
}

// Contains reports whether p is in the view.
func (v *View) Contains(p proto.ProcessID) bool { return v.indexOf(p) >= 0 }

// Remove deletes p, reporting whether it was present.
func (v *View) Remove(p proto.ProcessID) bool {
	i := v.indexOf(p)
	if i < 0 {
		return false
	}
	last := len(v.list) - 1
	if i != last {
		v.list[i] = v.list[last]
	}
	v.list = v.list[:last]
	return true
}

// Len returns the number of entries.
func (v *View) Len() int { return len(v.list) }

// Processes returns a copy of the member identifiers in internal order.
func (v *View) Processes() []proto.ProcessID {
	if len(v.list) == 0 {
		return nil
	}
	out := make([]proto.ProcessID, len(v.list))
	for i, e := range v.list {
		out[i] = e.Process
	}
	return out
}

// Entries returns a copy of the entries in internal order.
func (v *View) Entries() []Entry {
	if len(v.list) == 0 {
		return nil
	}
	return append([]Entry(nil), v.list...)
}

// Pick returns k distinct members chosen uniformly at random — the gossip
// target selection of Fig. 1(b). If k >= Len() all members are returned in
// random order.
func (v *View) Pick(k int, r *rng.Source) []proto.ProcessID {
	if k <= 0 || len(v.list) == 0 {
		return nil
	}
	idxs := r.Sample(len(v.list), k)
	out := make([]proto.ProcessID, len(idxs))
	for i, j := range idxs {
		out[i] = v.list[j].Process
	}
	return out
}

// AppendPick appends Pick(k, r)'s choices to dst, reusing an internal
// index scratch so the steady-state emission path does not allocate. It
// consumes the same random draws as Pick.
func (v *View) AppendPick(dst []proto.ProcessID, k int, r *rng.Source) []proto.ProcessID {
	if k <= 0 || len(v.list) == 0 {
		return dst
	}
	v.pickScratch = r.SampleAppend(v.pickScratch[:0], len(v.list), k)
	for _, j := range v.pickScratch {
		dst = append(dst, v.list[j].Process)
	}
	return dst
}

// truncate removes entries until Len() <= max, never evicting processes
// in keep (the prioritary set, usually empty or a handful of ids). Each
// victim is drawn uniformly among the non-kept entries or, when weighted
// is set, among the non-kept entries of highest weight — the §6.1
// heuristic: well-known entries "are more probable of being known by
// many other processes" and are evicted first. If every entry is
// protected by keep, the view is left over-full rather than evicting a
// prioritary process. Candidates are counted in ascending position order
// and each victim costs exactly one draw over them (r.Intn(len) itself
// when keep is empty), so the draws match a candidate list rebuilt before
// every eviction without building one.
//
// The removed entries are returned in eviction order, or nil if none was
// (they stay eligible for forwarding via subs, per Fig. 1(a) phase 2).
// Each victim is swapped with the last entry before the list shrinks, so
// the returned slice is the view's spare capacity: consume it before the
// view changes again, and do not retain it. The only other bookkeeping,
// the position bitset marking kept entries, is retained on the View:
// truncation under gossip churn, the per-message hot path of a large
// simulation, does not allocate.
func (v *View) truncate(max int, keep []proto.ProcessID, weighted bool, r *rng.Source) []Entry {
	if max < 0 {
		max = 0
	}
	n := len(v.list)
	kept := 0
	if len(v.list) > max && len(keep) > 0 {
		// Mark kept positions once; eviction swap-removes, so the marks
		// are maintained with a bit move per eviction instead of a rescan.
		v.keepBits.Clear()
		v.keepBits.Grow(len(v.list))
		for i := range v.list {
			for _, k := range keep {
				if v.list[i].Process == k {
					v.keepBits.Set(i)
					kept++
					break
				}
			}
		}
	}
	for len(v.list) > max && len(v.list) > kept {
		var victim int
		switch {
		case weighted:
			victim = v.heaviest(kept > 0, r)
		case kept == 0:
			victim = r.Intn(len(v.list))
		default:
			victim = v.nthFree(r.Intn(len(v.list) - kept))
		}
		if kept > 0 {
			v.keepBits.Move(len(v.list)-1, victim)
		}
		last := len(v.list) - 1
		v.list[victim], v.list[last] = v.list[last], v.list[victim]
		v.list = v.list[:last]
	}
	if len(v.list) == n {
		return nil
	}
	evicted := v.list[len(v.list):n] // most recent first
	slices.Reverse(evicted)
	return evicted
}

// nthFree returns the position of the k-th (0-based) entry not marked in
// keepBits.
func (v *View) nthFree(k int) int {
	for i := range v.list {
		if v.keepBits.Get(i) {
			continue
		}
		if k == 0 {
			return i
		}
		k--
	}
	panic("membership: nthFree out of range")
}

// heaviest picks the weighted victim: one draw chooses uniformly among the
// non-kept entries of maximal weight. There is at least one non-kept entry.
func (v *View) heaviest(useKeep bool, r *rng.Source) int {
	best, ties := 0, 0
	for i := range v.list {
		if useKeep && v.keepBits.Get(i) {
			continue
		}
		switch w := v.list[i].Weight; {
		case ties == 0 || w > best:
			best, ties = w, 1
		case w == best:
			ties++
		}
	}
	k := r.Intn(ties)
	for i := range v.list {
		if useKeep && v.keepBits.Get(i) || v.list[i].Weight != best {
			continue
		}
		if k == 0 {
			return i
		}
		k--
	}
	panic("membership: heaviest out of range")
}

// SortedProcesses returns member identifiers in ascending order — for
// deterministic displays and tests.
func (v *View) SortedProcesses() []proto.ProcessID {
	ps := v.Processes()
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	return ps
}

// String implements fmt.Stringer.
func (v *View) String() string {
	return fmt.Sprintf("view(%s)%v", v.owner, v.SortedProcesses())
}
