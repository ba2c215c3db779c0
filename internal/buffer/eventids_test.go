package buffer

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/proto"
	"repro/internal/rng"
)

// archiveSizes are the archive bounds the differential tests cover: the
// degenerate one- and two-event rings, the table sizes around the default
// bound of 200, and a Logger-sized archive that grows through several
// doublings.
var archiveSizes = []int{1, 2, 64, 200, 1000}

// layerModel drives the event-id structures and their pre-change oracle
// (oracle_test.go) with the same operations and compares every observable
// after each one.
type layerModel struct {
	arch    *Archive
	oldArch *oldArchive
	win     *IDBuffer
	oldWin  *oldIDBuffer
	dig     *CompactDigest
	oldDig  *oldCompactDigest
	next    map[proto.ProcessID]uint64 // in-order sequence counters
	steps   int
	stores  int // stores of ids not archived at the time
}

func newLayerModel(archiveSize, windowSize int) *layerModel {
	return &layerModel{
		arch: NewArchive(archiveSize), oldArch: newOldArchive(archiveSize),
		win: NewIDBuffer(windowSize), oldWin: newOldIDBuffer(windowSize),
		dig: NewCompactDigest(), oldDig: &oldCompactDigest{},
		next: map[proto.ProcessID]uint64{},
	}
}

// decodeID maps two bytes to an identifier: NilProcess, up to 200 origins
// (enough to grow the origin table to 512 slots) or origins near 2⁶⁴; and
// seq 0, small seqs, the origin's next in-order seq, a few past it, or
// seqs near 2⁶⁴.
func (m *layerModel) decodeID(ob, sb byte) proto.EventID {
	var origin proto.ProcessID
	switch {
	case ob == 0:
		origin = proto.NilProcess
	case ob <= 200:
		origin = proto.ProcessID(ob)
	default:
		origin = proto.ProcessID(math.MaxUint64 - uint64(ob-201))
	}
	var seq uint64
	switch {
	case sb == 0:
		seq = 0
	case sb < 96:
		seq = uint64(sb)
	case sb < 192:
		m.next[origin]++
		seq = m.next[origin]
	case sb < 240:
		seq = m.next[origin] + 2 + uint64(sb%8)
	default:
		seq = math.MaxUint64 - uint64(sb-240)
	}
	return proto.EventID{Origin: origin, Seq: seq}
}

// apply runs one operation on both sides and returns a mismatch, if any.
func (m *layerModel) apply(op byte, id proto.EventID) error {
	m.steps++
	switch op % 8 {
	case 0, 1, 2:
		e := proto.Event{ID: id, Payload: []byte{byte(m.steps), byte(m.steps >> 8)}}
		if _, ok := m.oldArch.Lookup(id); !ok {
			m.stores++
		}
		m.arch.Store(e)
		m.oldArch.Store(e)
	case 3, 4:
		got := m.dig.Add(id)
		if id.Origin == proto.NilProcess {
			// The one intended difference: NilProcess marks an empty
			// table slot and is never stored (the engine rejects such ids
			// before either structure sees them).
			if got {
				return fmt.Errorf("Add(%v) = true, want false for NilProcess", id)
			}
		} else if want := m.oldDig.Add(id); got != want {
			return fmt.Errorf("digest Add(%v) = %v, oracle %v", id, got, want)
		}
	case 5:
		if got, want := m.win.Add(id), m.oldWin.Add(id); got != want {
			return fmt.Errorf("window Add(%v) = %v, oracle %v", id, got, want)
		}
	case 6:
		// The engine's record path: push only ids just found unknown.
		if !m.win.Contains(id) {
			m.win.Push(id)
			m.oldWin.Add(id)
		}
	}
	return m.check(op%8, id)
}

// check compares the observables after operation op: id's lookups in
// every structure, the whole state of the structure op changed, and
// periodically every archived event.
func (m *layerModel) check(op byte, id proto.EventID) error {
	if got, want := m.dig.Contains(id), m.oldDig.Contains(id) && id.Origin != proto.NilProcess; got != want {
		return fmt.Errorf("digest Contains(%v) = %v, oracle %v", id, got, want)
	}
	if got, want := m.dig.Watermark(id.Origin), m.oldDig.Watermark(id.Origin); got != want {
		return fmt.Errorf("Watermark(%v) = %d, oracle %d", id.Origin, got, want)
	}
	if got, want := m.win.Contains(id), m.oldWin.Contains(id); got != want {
		return fmt.Errorf("window Contains(%v) = %v, oracle %v", id, got, want)
	}
	if got, want := m.arch.Len(), m.oldArch.Len(); got != want {
		return fmt.Errorf("archive Len = %d, oracle %d", got, want)
	}
	if err := m.lookup(id); err != nil {
		return err
	}
	if m.steps%61 == 0 {
		for _, e := range m.oldArch.inner.items {
			if err := m.lookup(e.ID); err != nil {
				return err
			}
		}
	}
	switch op {
	case 3, 4:
		return m.checkDigest()
	case 5, 6:
		return m.checkWindow()
	}
	return nil
}

func (m *layerModel) checkDigest() error {
	if got, want := m.dig.SparseLen(), m.oldDig.SparseLen(); got != want {
		return fmt.Errorf("SparseLen = %d, oracle %d", got, want)
	}
	if got, want := m.dig.Origins(), m.oldDig.Origins(); got != want {
		return fmt.Errorf("Origins = %d, oracle %d", got, want)
	}
	if got, want := m.dig.Summary(), m.oldDig.Summary(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("Summary = %v, oracle %v", got, want)
	}
	sparse, watermarks := oldEmission(m.oldDig)
	ids, wms := m.dig.AppendDigest([]proto.EventID{{}}, nil)
	if !slices.Equal(ids, append([]proto.EventID{{}}, sparse...)) || !slices.Equal(wms, watermarks) {
		return fmt.Errorf("AppendDigest = %v, %v; oracle %v, %v", ids, wms, sparse, watermarks)
	}
	return nil
}

func (m *layerModel) checkWindow() error {
	if got, want := m.win.Len(), m.oldWin.Len(); got != want {
		return fmt.Errorf("window Len = %d, oracle %d", got, want)
	}
	if got, want := m.win.IDs(), m.oldWin.IDs(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("window IDs = %v, oracle %v", got, want)
	}
	if got, want := m.win.AppendIDs([]proto.EventID{{}}), append([]proto.EventID{{}}, m.oldWin.IDs()...); !slices.Equal(got, want) {
		return fmt.Errorf("window AppendIDs = %v, oracle %v", got, want)
	}
	return nil
}

func (m *layerModel) lookup(id proto.EventID) error {
	got, gok := m.arch.Lookup(id)
	want, wok := m.oldArch.Lookup(id)
	if gok != wok || !reflect.DeepEqual(got, want) {
		return fmt.Errorf("archive Lookup(%v) = %v,%v, oracle %v,%v", id, got, gok, want, wok)
	}
	return nil
}

// runLayer decodes data into an operation sequence — the archive bound
// from the first byte, the window bound from the second, then three bytes
// per operation (kind, origin, seq) — and runs it against the oracle.
func runLayer(data []byte) (*layerModel, error) {
	if len(data) < 2 {
		return nil, nil
	}
	m := newLayerModel(archiveSizes[int(data[0])%len(archiveSizes)], 1+int(data[1])%64)
	for ops := data[2:]; len(ops) >= 3; ops = ops[3:] {
		if err := m.apply(ops[0], m.decodeID(ops[1], ops[2])); err != nil {
			return m, fmt.Errorf("step %d: %w", m.steps, err)
		}
	}
	return m, nil
}

// TestEventIDLayerMatchesOracle runs random operation sequences on fixed,
// printed seeds against the pre-change structures: duplicates and
// out-of-order ids, seq 0, NilProcess and seqs near 2⁶⁴, up to 200 origins,
// and enough stores to wrap every archive ring at least twice.
func TestEventIDLayerMatchesOracle(t *testing.T) {
	t.Parallel()
	for si, size := range archiveSizes {
		for seed := uint64(1); seed <= 4; seed++ {
			r := rng.New(seed<<8 | uint64(size))
			ops := 6*size + 600
			data := []byte{byte(si), byte(r.Intn(256))}
			origins := 1 + r.Intn(200) // origins this sequence draws from
			for i := 0; i < ops; i++ {
				ob := byte(1 + r.Intn(origins))
				switch r.Intn(40) {
				case 0:
					ob = 0
				case 1:
					ob = byte(201 + r.Intn(55))
				}
				sb := byte(r.Intn(256))
				if r.Intn(2) == 0 {
					sb = byte(96 + r.Intn(96)) // in order: fresh ids wrap the ring
				}
				data = append(data, byte(r.Intn(256)), ob, sb)
			}
			m, err := runLayer(data)
			if err != nil {
				t.Fatalf("archive size %d, seed %d: %v", size, seed, err)
			}
			if m.stores < 2*size {
				t.Fatalf("archive size %d, seed %d: %d fresh stores do not wrap the ring twice", size, seed, m.stores)
			}
		}
	}
}

// FuzzEventIDLayer is the differential fuzz target: arbitrary bytes decode
// into an operation sequence (see runLayer) run on the event-id structures
// and the oracle, which must agree after every operation.
func FuzzEventIDLayer(f *testing.F) {
	f.Add([]byte{3, 59, 0, 7, 1, 3, 7, 130, 0, 7, 200, 6, 7, 1, 5, 7, 3, 4, 0, 250, 0})
	f.Add([]byte{0, 0, 0, 1, 1, 0, 1, 1, 0, 2, 1, 3, 0, 1, 3, 6, 9, 244})
	f.Add([]byte{1, 1, 1, 4, 200, 2, 4, 201, 3, 4, 255, 4, 4, 0, 5, 6, 4, 240, 6, 4, 241})
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := runLayer(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEventIDLayerZeroAlloc gates the steady-state operations at zero
// allocations: a store into a full archive (evicting), a lookup, a digest
// Contains and in-order Add, and a window push at capacity.
func TestEventIDLayerZeroAlloc(t *testing.T) {
	a := NewArchive(200)
	seq := uint64(0)
	store := func() {
		seq++
		a.Store(proto.Event{ID: proto.EventID{Origin: proto.ProcessID(1 + seq%7), Seq: seq}})
	}
	for i := 0; i < 400; i++ {
		store()
	}
	if n := testing.AllocsPerRun(1000, store); n != 0 {
		t.Errorf("Archive.Store on a full archive: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { a.Lookup(proto.EventID{Origin: 3, Seq: seq - 5}) }); n != 0 {
		t.Errorf("Archive.Lookup: %v allocs, want 0", n)
	}

	d := NewCompactDigest()
	for o := proto.ProcessID(1); o <= 100; o++ {
		d.Add(proto.EventID{Origin: o, Seq: 1})
		d.Add(proto.EventID{Origin: o, Seq: 3})
	}
	next := uint64(3)
	if n := testing.AllocsPerRun(1000, func() {
		next++
		d.Add(proto.EventID{Origin: 7, Seq: next})
	}); n != 0 {
		t.Errorf("CompactDigest.Add in order: %v allocs, want 0", n)
	}
	hits := 0
	if n := testing.AllocsPerRun(1000, func() {
		if d.Contains(proto.EventID{Origin: 9, Seq: 3}) && !d.Contains(proto.EventID{Origin: 500, Seq: 1}) {
			hits++
		}
	}); n != 0 || hits == 0 {
		t.Errorf("CompactDigest.Contains: %v allocs (hits %d), want 0", n, hits)
	}

	w := NewIDBuffer(60)
	for i := uint64(1); i <= 60; i++ {
		w.Push(proto.EventID{Origin: 1, Seq: i})
	}
	if n := testing.AllocsPerRun(1000, func() {
		next++
		w.Push(proto.EventID{Origin: 2, Seq: next})
	}); n != 0 {
		t.Errorf("IDBuffer.Push at capacity: %v allocs, want 0", n)
	}
}

// TestCompactDigestHostileSparse: 10⁵ ids above an origin's watermark, as
// a run of hostile watermark gossips can leave behind, are all kept,
// counted and found in the origin's sparse map.
func TestCompactDigestHostileSparse(t *testing.T) {
	t.Parallel()
	d := NewCompactDigest()
	const n = 100000
	for s := uint64(2); s < n+2; s++ {
		if !d.Add(proto.EventID{Origin: 7, Seq: s * 2}) {
			t.Fatalf("Add(7, %d) = false", s*2)
		}
	}
	if d.SparseLen() != n || d.Watermark(7) != 0 {
		t.Fatalf("SparseLen %d, watermark %d; want %d, 0", d.SparseLen(), d.Watermark(7), n)
	}
	if !d.Contains(proto.EventID{Origin: 7, Seq: 2 * n}) || d.Contains(proto.EventID{Origin: 7, Seq: 2*n + 1}) {
		t.Fatal("Contains wrong on a large sparse set")
	}
}

// fibonacci is a fixed hash multiplier K a table might use, and fibInverse
// its inverse mod 2⁶⁴.
const fibonacci = 0x9E3779B97F4A7C15

var fibInverse = func() uint64 {
	x := uint64(fibonacci) // Newton's iteration doubles the correct low bits
	for i := 0; i < 5; i++ {
		x *= 2 - fibonacci*x
	}
	return x
}()

// TestHashFloodResistance stores keys crafted to share one home under a
// fixed hash: 4,096 origins i·K⁻¹ in a digest, and in an archive 1,000 ids
// {i, −i·K} whose fixed fold origin·K+seq is 0 for all. With the tables'
// random keys the mean distance of an entry from its home stays that of
// random keys, not ~n/2.
func TestHashFloodResistance(t *testing.T) {
	t.Parallel()
	d := NewCompactDigest()
	for i := uint64(1); i <= 4096; i++ {
		d.Add(proto.EventID{Origin: proto.ProcessID(i * fibInverse), Seq: 1})
	}
	mask, total := len(d.slots)-1, 0
	for i, s := range d.slots {
		if s.origin != proto.NilProcess {
			total += (i - int(mix(uint64(s.origin), d.key)>>d.shift)) & mask
		}
	}
	if mean := float64(total) / float64(d.Origins()); d.Origins() != 4096 || mean > 8 {
		t.Errorf("digest: %d origins, mean displacement %.1f slots, want 4096 and <= 8", d.Origins(), mean)
	}

	a := NewArchive(1000)
	for i := uint64(1); i <= 1000; i++ {
		a.Store(proto.Event{ID: proto.EventID{Origin: proto.ProcessID(i), Seq: -i * fibonacci}})
	}
	mask, total = len(a.index)-1, 0
	for j, p := range a.index {
		if p != 0 {
			total += (j - a.home(a.ring[p-1].ID)) & mask
		}
	}
	if mean := float64(total) / float64(a.Len()); a.Len() != 1000 || mean > 8 {
		t.Errorf("archive: %d events, mean displacement %.1f slots, want 1000 and <= 8", a.Len(), mean)
	}
}

func BenchmarkCompactDigestContains(b *testing.B) {
	d := NewCompactDigest()
	for o := proto.ProcessID(1); o <= 64; o++ {
		for s := uint64(1); s <= 50; s++ {
			d.Add(proto.EventID{Origin: o, Seq: s})
		}
	}
	hits := 0
	for i := 0; i < b.N; i++ {
		if d.Contains(proto.EventID{Origin: proto.ProcessID(1 + i&63), Seq: uint64(1 + i&127)}) {
			hits++
		}
	}
	sink = hits
}

func BenchmarkArchiveStoreFull(b *testing.B) {
	a := NewArchive(200)
	store := func(i int) {
		a.Store(proto.Event{ID: proto.EventID{Origin: proto.ProcessID(1 + i%64), Seq: uint64(i)}})
	}
	for i := 0; i < 200; i++ {
		store(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store(200 + i)
	}
}

var sink int
