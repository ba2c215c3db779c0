package membership

import (
	"testing"
	"testing/quick"

	"repro/internal/proto"
	"repro/internal/rng"
)

func TestViewAddBasics(t *testing.T) {
	t.Parallel()
	v := NewView(1)
	if v.Owner() != 1 {
		t.Fatalf("Owner = %v", v.Owner())
	}
	if v.Add(1) {
		t.Fatal("view accepted its owner")
	}
	if v.Add(proto.NilProcess) {
		t.Fatal("view accepted the nil process")
	}
	if !v.Add(2) || v.Add(2) {
		t.Fatal("Add/dup behaviour wrong")
	}
	if !v.Contains(2) || v.Contains(3) || v.Len() != 1 {
		t.Fatal("Contains/Len wrong")
	}
}

func TestViewRemove(t *testing.T) {
	t.Parallel()
	v := NewView(1)
	v.Add(2)
	v.Add(3)
	v.Add(4)
	if !v.Remove(3) || v.Remove(3) {
		t.Fatal("Remove behaviour wrong")
	}
	if v.Len() != 2 || v.Contains(3) {
		t.Fatal("Remove did not remove")
	}
	// Internal swap-remove must keep idx consistent.
	if !v.Contains(2) || !v.Contains(4) {
		t.Fatal("Remove corrupted other entries")
	}
	if !v.Remove(2) || !v.Remove(4) || v.Len() != 0 {
		t.Fatal("emptying failed")
	}
}

func TestViewWeights(t *testing.T) {
	t.Parallel()
	v := NewView(1)
	v.Add(2)
	v.Add(2) // a duplicate Add leaves the weight alone
	if es := v.Entries(); len(es) != 1 || es[0].Weight != 1 {
		t.Fatalf("entries = %v, want one of weight 1", es)
	}
}

func TestViewPick(t *testing.T) {
	t.Parallel()
	r := rng.New(1)
	v := NewView(1)
	for i := uint64(2); i <= 11; i++ {
		v.Add(proto.ProcessID(i))
	}
	got := v.Pick(3, r)
	if len(got) != 3 {
		t.Fatalf("Pick(3) returned %d", len(got))
	}
	seen := map[proto.ProcessID]bool{}
	for _, p := range got {
		if seen[p] || !v.Contains(p) {
			t.Fatalf("Pick returned invalid set %v", got)
		}
		seen[p] = true
	}
	if got := v.Pick(100, r); len(got) != 10 {
		t.Fatalf("Pick(100) returned %d, want all 10", len(got))
	}
	if got := v.Pick(0, r); got != nil {
		t.Fatalf("Pick(0) = %v", got)
	}
}

func TestViewPickEmpty(t *testing.T) {
	t.Parallel()
	r := rng.New(1)
	v := NewView(1)
	if got := v.Pick(3, r); got != nil {
		t.Fatalf("Pick on empty view = %v", got)
	}
}

func TestTruncateUniform(t *testing.T) {
	t.Parallel()
	r := rng.New(7)
	v := NewView(1)
	for i := uint64(2); i <= 21; i++ {
		v.Add(proto.ProcessID(i))
	}
	removed := v.truncate(5, nil, false, r)
	if v.Len() != 5 || len(removed) != 15 {
		t.Fatalf("kept %d, removed %d", v.Len(), len(removed))
	}
	for _, e := range removed {
		if v.Contains(e.Process) {
			t.Fatalf("removed %v still in view", e.Process)
		}
	}
}

func TestTruncateKeepsPrioritary(t *testing.T) {
	t.Parallel()
	r := rng.New(7)
	keep := []proto.ProcessID{2, 3}
	for trial := 0; trial < 50; trial++ {
		v := NewView(1)
		for i := uint64(2); i <= 21; i++ {
			v.Add(proto.ProcessID(i))
		}
		v.truncate(3, keep, false, r)
		if !v.Contains(2) || !v.Contains(3) {
			t.Fatal("prioritary process evicted")
		}
	}
}

func TestTruncateAllKept(t *testing.T) {
	t.Parallel()
	r := rng.New(7)
	v := NewView(1)
	v.Add(2)
	v.Add(3)
	keep := []proto.ProcessID{2, 3}
	if removed := v.truncate(1, keep, false, r); removed != nil {
		t.Fatalf("evicted protected entries: %v", removed)
	}
	if v.Len() != 2 {
		t.Fatal("protected entries removed")
	}
}

func TestTruncateWeightedEvictsHeavy(t *testing.T) {
	t.Parallel()
	r := rng.New(9)
	v := NewView(1)
	v.Add(2)
	v.Add(3)
	v.Add(4)
	v.list[1].Weight += 5 // 3 is the best-known entry
	removed := v.truncate(2, nil, true, r)
	if len(removed) != 1 || removed[0].Process != 3 {
		t.Fatalf("removed %v, want [3]", removed)
	}
}

func TestTruncateWeightedTieBreaksRandomly(t *testing.T) {
	t.Parallel()
	r := rng.New(11)
	victims := map[proto.ProcessID]int{}
	for trial := 0; trial < 300; trial++ {
		v := NewView(1)
		v.Add(2)
		v.Add(3)
		v.Add(4)
		removed := v.truncate(2, nil, true, r)
		victims[removed[0].Process]++
	}
	for _, p := range []proto.ProcessID{2, 3, 4} {
		if victims[p] < 50 {
			t.Errorf("process %v evicted only %d/300 times; tie-break not uniform", p, victims[p])
		}
	}
}

func TestViewNeverContainsOwnerProperty(t *testing.T) {
	t.Parallel()
	r := rng.New(13)
	if err := quick.Check(func(ops []uint16) bool {
		v := NewView(5)
		for _, op := range ops {
			p := proto.ProcessID(op % 16)
			switch op % 3 {
			case 0:
				v.Add(p)
			case 1:
				v.Remove(p)
			case 2:
				v.truncate(int(op%8), nil, false, r)
			}
		}
		return !v.Contains(5) && v.Len() <= 16
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestViewEntriesCopy(t *testing.T) {
	t.Parallel()
	v := NewView(1)
	v.Add(2)
	es := v.Entries()
	es[0].Weight = 99
	if v.Entries()[0].Weight != 1 {
		t.Fatal("Entries aliased internal state")
	}
	ps := v.Processes()
	ps[0] = 42
	if !v.Contains(2) {
		t.Fatal("Processes aliased internal state")
	}
}

func TestViewString(t *testing.T) {
	t.Parallel()
	v := NewView(1)
	v.Add(3)
	v.Add(2)
	if got := v.String(); got != "view(p1)[p2 p3]" {
		t.Errorf("String = %q", got)
	}
}

// TestTruncateKeepAllocFree regression-gates the keep path: protecting
// prioritary entries during truncation must not allocate — the historical
// implementation built a map per manager, the current one marks positions
// in a bitset retained on the View.
func TestTruncateKeepAllocFree(t *testing.T) {
	r := rng.New(7)
	v := NewView(1)
	v.Grow(64)
	keep := []proto.ProcessID{2, 3}
	cycle := func() {
		for i := uint64(2); i <= 40; i++ {
			v.Add(proto.ProcessID(i))
		}
		v.truncate(5, keep, false, r)
		for i := uint64(2); i <= 40; i++ {
			v.Add(proto.ProcessID(i))
		}
		v.truncate(5, keep, true, r)
	}
	cycle() // warm the retained scratch and bitset
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("truncation with keep set cost %.1f allocs/run, want 0", allocs)
	}
	if !v.Contains(2) || !v.Contains(3) {
		t.Fatal("prioritary entries evicted")
	}
}
