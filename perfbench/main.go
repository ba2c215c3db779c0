// Command perfbench is the repository's end-to-end benchmark. It drives
// four workloads through the public entry points of the simulator
// (internal/sim), the pub/sub bus (internal/pubsub) and the live UDP node
// (package lpbcast), checks their outputs, and prints one JSON result line.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload sim-steady --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, measured by spans the benchmark places
// around its own calls into each layer and by counters read through public
// accessors (see README.md in this directory).
//
// perfbench -check BENCHMARK.json <file>... [-- <file>...] reads result
// lines from the files (one run per file) and checks each end-to-end
// metric against its bound: the spread of each set, and the drift of the
// second set's median from the first's.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times each workload is set up per run; setup_s is
// the median, so one slow construction does not move it.
const setupReps = 3

// minOps is the least number of timed operations (rounds or steps) a run
// makes, whatever --seconds says: it gives p90 of the quieter half its
// ten-sample support, and the output fingerprint is taken after exactly
// this many.
const minOps = 240

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one benchmark invocation's context and accumulated output.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	workers  int

	attempted, failed int64
	metrics           map[string]metric
	notes             []string
}

func (r *run) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts one failed operation and keeps its reason for the log.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		r.notef("failure: "+format, args...)
	}
}

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setP50P90 sets name_p50 and name_p90 from samples.
func (r *run) setP50P90(prefix, unit string, xs []float64) error {
	for _, q := range []struct {
		suffix string
		q      float64
	}{{"_p50", 0.5}, {"_p90", 0.9}} {
		v, err := percentile(xs, q.q)
		if err != nil {
			return fmt.Errorf("%s%s: %w", prefix, q.suffix, err)
		}
		r.set(prefix+q.suffix, unit, v)
	}
	return nil
}

// setRoundMetrics sets round_ms_p50, round_ms_p90 and proc_rounds_per_s
// of a closed-loop workload from its round times, in order, taken over the
// quieter half of the run; members is the number of members a round
// advances. It returns the median round, at which delivery latency is
// priced.
func setRoundMetrics(r *run, roundMs []float64, members float64) (float64, error) {
	quiet := quieterHalf(roundMs, quietWindow)
	if err := r.setP50P90("round_ms", "ms", quiet); err != nil {
		return 0, err
	}
	var total float64
	for _, x := range quiet {
		total += x
	}
	r.set("proc_rounds_per_s", "1/s", members*float64(len(quiet))/(total/1e3))
	return median(quiet), nil
}

// setDeliverP50P90 sets deliver_ms_p50 and deliver_ms_p90 of a closed-loop
// workload from its delivery latencies counted in rounds, priced at the
// median round. An event spreads over a dozen rounds, so its host-time
// latency would swing with every stretch in which a shared host runs
// rounds slower; the rounds it takes are fixed by the seed. sim-steady's
// events spread during its warm-up, whose rounds are shorter than steady
// ones, so they are priced at the timed phase's round too.
func setDeliverP50P90(r *run, roundSpans []span, roundMs float64) error {
	for _, q := range []struct {
		name string
		q    float64
	}{{"deliver_ms_p50", 0.5}, {"deliver_ms_p90", 0.9}} {
		rounds, err := spanQuantile(roundSpans, q.q)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		r.set(q.name, "ms", rounds*roundMs)
	}
	return nil
}

var workloads = map[string]func(*run) error{
	"sim-steady":   runSimSteady,
	"sim-publish":  runSimPublish,
	"pubsub-churn": runPubsubChurn,
	"node-ingest":  runNodeIngest,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-check" {
		if err := checkRuns(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := benchMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "seconds the timed phase lasts")
	traceFlag := fs.Int("trace", 0, "1 prints per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	r := &run{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *traceFlag == 1,
		workers:  runtime.NumCPU(),
		metrics:  map[string]metric{},
	}
	machine, err := json.Marshal(machineRecord())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# machine %s\n", machine)
	if err := fn(r); err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	want := endToEnd
	if r.trace {
		want = perLayer
	}
	if err := checkNames(r, want); err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	for _, n := range r.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "# %-34s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	fmt.Fprintf(stdout, "# failed/attempted %d/%d\n", r.failed, r.attempted)
	line, err := json.Marshal(result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// machineRecord identifies where and on what code a run was measured. The
// checkout the benchmark runs in need not be a git repository, so the code
// is identified by a hash of its Go sources and go.mod files.
func machineRecord() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"source":     sourceHash(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash is an FNV-1a hash over the path and contents of every .go and
// go.mod file below the working directory, skipping hidden directories.
func sourceHash() string {
	h := fnv.New64a()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// fingerprint accumulates an FNV-1a hash of a run's outputs.
type fingerprint struct{ h uint64 }

func newFingerprint() *fingerprint { return &fingerprint{h: 14695981039346656037} }

func (f *fingerprint) add(vs ...uint64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			f.h ^= v & 0xff
			f.h *= 1099511628211
			v >>= 8
		}
	}
}

// measureSetup builds a workload setupReps times, timing each build, and
// keeps the last; setup_s is the median build time. The heap is collected
// before each build so one build's garbage is not charged to the next.
func measureSetup[T any](r *run, build func() (T, error), discard func(T)) (T, error) {
	var (
		s     T
		err   error
		times []float64
	)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			discard(s)
		}
		runtime.GC()
		start := time.Now()
		s, err = build()
		if err != nil {
			var zero T
			return zero, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	r.set("setup_s", "s", median(times))
	return s, nil
}

// heapMeter measures the live heap, as marked by a full collection, above
// a baseline taken when it was created. Collections are forced only
// outside timed spans, so they never land inside a measured operation.
type heapMeter struct {
	sample   []metrics.Sample
	baseline uint64
}

func newHeapMeter() *heapMeter {
	h := &heapMeter{sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	h.baseline = h.live()
	return h
}

// live collects and returns the live heap in bytes.
func (h *heapMeter) live() uint64 {
	runtime.GC()
	metrics.Read(h.sample)
	if h.sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return h.sample[0].Value.Uint64()
}

// mb returns the live heap above the baseline, less exclude bytes, in MB.
func (h *heapMeter) mb(exclude uint64) float64 {
	v := h.live()
	if v <= h.baseline+exclude {
		return 0
	}
	return float64(v-h.baseline-exclude) / (1 << 20)
}

// cpuWindows measures process CPU per unit of work over consecutive
// windows of a timed phase; its median is steadier than one phase-wide
// ratio when the machine is busy in bursts.
type cpuWindows struct {
	cpu  time.Duration
	work float64
	per  []float64 // µs per unit of work, one per window
}

// start opens a window at the given cumulative work count.
func (w *cpuWindows) start(work float64) { w.cpu, w.work = cpuTime(), work }

// mark closes the current window and opens the next.
func (w *cpuWindows) mark(work float64) {
	c := cpuTime()
	if done := work - w.work; done > 0 {
		w.per = append(w.per, float64((c-w.cpu).Nanoseconds())/1e3/done)
	}
	w.cpu, w.work = c, work
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// checkRuns implements -check: args are BENCHMARK.json, then result
// files, each holding one run's output, optionally followed by "--" and a
// second set. It prints each end-to-end metric's median and spread per set
// and, given two sets, applies withinBound to them; it fails if any metric
// is outside its bound.
func checkRuns(w io.Writer, args []string) error {
	if len(args) < 3 {
		return errors.New("usage: perfbench -check BENCHMARK.json <result file>... [-- <result file>...]")
	}
	var spec struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	b, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	var sets []map[string][]float64
	for _, files := range strings.Split(strings.Join(args[1:], "\x00"), "\x00--\x00") {
		values := map[string][]float64{}
		for _, path := range strings.Split(files, "\x00") {
			res, err := readResult(path)
			if err != nil {
				return err
			}
			for n, m := range res.Metrics {
				values[n] = append(values[n], m.Value)
			}
		}
		sets = append(sets, values)
	}
	failed := 0
	for _, m := range spec.EndToEnd {
		fmt.Fprintf(w, "%-18s bound %.2f", m.Name, m.Bound)
		for _, set := range sets {
			s, err := spread(set[m.Name])
			if err != nil {
				return fmt.Errorf("%s: %w", m.Name, err)
			}
			fmt.Fprintf(w, "  median %-12.6g spread %.4f", median(set[m.Name]), s)
		}
		first, second := sets[0][m.Name], sets[len(sets)-1][m.Name]
		ok, why, err := withinBound(first, second, m.Bound, m.Better == "lower", m.Name == "setup_s")
		if err != nil {
			return fmt.Errorf("%s: %w", m.Name, err)
		}
		if !ok {
			failed++
			fmt.Fprintf(w, "  FAIL: %s", why)
		}
		fmt.Fprintln(w)
	}
	if failed > 0 {
		return fmt.Errorf("%d metrics outside their bounds", failed)
	}
	return nil
}

// readResult returns the result object on the last line of a run's output.
func readResult(path string) (result, error) {
	var res result
	b, err := os.ReadFile(path)
	if err != nil {
		return res, err
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s: last line: %w", path, err)
	}
	return res, nil
}
