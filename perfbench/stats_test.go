package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.9); !errors.Is(err, errNoSupport) {
		t.Fatalf("p90 of 99 samples: err %v, want errNoSupport", err)
	}
	xs = append(xs, 100)
	got, err := percentile(xs, 0.9)
	if err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	if !near(got, 90.1) {
		t.Fatalf("p90 of 1..100 = %v, want 90.1", got)
	}
	if _, err := percentile(xs[:19], 0.5); !errors.Is(err, errNoSupport) {
		t.Fatalf("p50 of 19 samples: err %v, want errNoSupport", err)
	}
	if got, err := percentile(xs[:20], 0.5); err != nil || !near(got, 10.5) {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10.5", got, err)
	}
}

func TestPercentileDoesNotReorderInput(t *testing.T) {
	xs := []float64{5, 1, 4}
	for len(xs) < 40 {
		xs = append(xs, 3)
	}
	if _, err := percentile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 4 {
		t.Fatalf("input reordered: %v", xs[:3])
	}
}

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// returns for the same data.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3, 7}, 2, 5, 8},
	} {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value: want an error")
	}
}

func TestSpreadIsInterquartileOverMedian(t *testing.T) {
	s, err := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !near(s, (8.25-2.75)/5.5) {
		t.Fatalf("spread = %v", s)
	}
	if _, err := spread([]float64{-1, 0, 1}); err == nil {
		t.Fatal("spread around a zero median: want an error")
	}
}

func TestWithinBound(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	slower := make([]float64, len(steady))
	for i, v := range steady {
		slower[i] = v * 1.2
	}
	for _, c := range []struct {
		name          string
		first, second []float64
		bound         float64
		lower, exempt bool
		want          bool
	}{
		{"same code", steady, steady, 0.1, true, false, true},
		{"20% slower, bound 10%", steady, slower, 0.1, true, false, false},
		{"20% slower, bound 25%", steady, slower, 0.25, true, false, true},
		{"20% higher is better", steady, slower, 0.1, false, false, true},
		{"20% lower, higher is better", slower, steady, 0.1, false, false, false},
		{"spread above bound", []float64{50, 100, 150, 100, 60, 140, 100, 70, 130, 100}, steady, 0.1, true, false, false},
		{"spread exempt", []float64{50, 100, 150, 100, 60, 140, 100, 70, 130, 100}, steady, 0.1, true, true, true},
	} {
		ok, why, err := withinBound(c.first, c.second, c.bound, c.lower, c.exempt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ok != c.want {
			t.Errorf("%s: within = %v (%s), want %v", c.name, ok, why, c.want)
		}
	}
}

func TestQuieterHalf(t *testing.T) {
	// Ten blocks of 20 rounds: 18 of 10 ms and 2 of 20 ms, the program's
	// own tail. The host runs every other block three times slower.
	var flat, phased []float64
	for b := 0; b < 10; b++ {
		scale := 1.0
		if b%2 == 1 {
			scale = 3
		}
		for i := 0; i < 20; i++ {
			x := 10.0
			if i%10 == 9 {
				x = 20
			}
			flat = append(flat, x)
			phased = append(phased, scale*x)
		}
	}
	if got := quieterHalf(flat, 20); len(got) != len(flat) {
		t.Errorf("flat: kept %d of %d rounds, want all", len(got), len(flat))
	}
	// The five quiet blocks are kept: their p90 is the program's tail, while
	// the plain p90 of the phased rounds is the slow blocks' typical round.
	quiet := quieterHalf(phased, 20)
	if len(quiet) != 100 {
		t.Fatalf("phased: kept %d rounds, want 100", len(quiet))
	}
	want, _ := percentile(flat, 0.9)
	if got, err := percentile(quiet, 0.9); err != nil || math.Abs(got-want) > 1e-9 {
		t.Errorf("p90 of the quieter half = %v, %v; want %v", got, err, want)
	}
	if p, _ := percentile(phased, 0.9); p != 30 {
		t.Errorf("plain p90 of phased = %v, want 30", p)
	}
	// A trailing partial block is left out.
	if got := quieterHalf(flat[:39], 20); len(got) != 20 {
		t.Errorf("39 rounds: kept %d, want 20", len(got))
	}
	if got := quieterHalf(flat[:19], 20); len(got) != 0 {
		t.Errorf("19 rounds: kept %d, want 0", len(got))
	}
}

func TestSpanQuantile(t *testing.T) {
	// 100 samples spread evenly over [0, 10] and 100 at exactly 20.
	spans := []span{{lo: 0, hi: 10, w: 100}, {lo: 20, hi: 20, w: 100}}
	got, err := spanQuantile(spans, 0.25)
	if err != nil || math.Abs(got-5) > 1e-6 {
		t.Fatalf("p25 = %v, %v; want 5", got, err)
	}
	got, err = spanQuantile(spans, 0.9)
	if err != nil || math.Abs(got-20) > 1e-6 {
		t.Fatalf("p90 = %v, %v; want 20", got, err)
	}
	if _, err := spanQuantile([]span{{lo: 0, hi: 1, w: 99}}, 0.9); !errors.Is(err, errNoSupport) {
		t.Fatalf("p90 of weight 99: err %v, want errNoSupport", err)
	}
}

// The metric lists the benchmark checks every run against are the ones
// BENCHMARK.json declares, in the same units.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found beside the benchmark directory")
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricName) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, benchmark %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}
