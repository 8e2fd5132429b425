// Command perfbench is the repository's benchmark: three seeded workloads
// run against the program's public APIs, every output is checked, and the
// metrics named in BENCHMARK.json are printed, the last line being one
// JSON object.
//
//	bash perfbench/run.sh --workload ondevice-bnopt --seed 1 --seconds 24 --trace 0
//	bash perfbench/run.sh --train   # rerun the weights recipe
//
// run.sh builds this command and the server process (./server) from source
// into .bench_build and runs it from the checkout root. Workloads:
//
//   - ondevice-bnopt: in-process BN-Opt on WRN-AM, batch 50, one episode per
//     corruption family with Reset between episodes (the paper's protocol).
//   - sessions-bnnorm: two named BN-Norm sessions over the wire, closed loop,
//     batch 50, checkpointing every 4 batches to disk, one replica.
//   - open-noadapt: stateless No-Adapt on RXT-AM, batch 8, seeded Poisson
//     arrivals on a fixed ladder of rates over two connections.
//
// With --trace 1 the workload runs twice with the same seed, untraced then
// traced; the traced run records spans around every call into the program
// and the nn layer profile, prints the per-layer metrics and the tracing
// overhead on each end-to-end metric, and writes its spans under
// .bench_build/trace.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"edgetta/internal/parallel"
	"edgetta/internal/serialize"
	"edgetta/internal/tensor"
	"edgetta/perfbench/fixture"
)

// setupReps is how many times each workload sets up; setup_s is the median.
const setupReps = 3

// env is one run's configuration.
type env struct {
	dir       string // benchmark directory (manifest, weights)
	work      string // scratch directory for this run's files
	serverBin string
	man       *fixture.Manifest
	seed      int64
	seconds   time.Duration
	traced    bool
	// corruptOne damages the first response before it is checked: the
	// self-test that the output checks fail a run.
	corruptOne bool
	tr         *tracer
}

// result is what one workload run measured.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	// bypassed lists metric-name prefixes of layers the workload never
	// calls; they report 0 and read "bypassed".
	bypassed    []string
	notes       []string
	inputDigest string
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) isBypassed(name string) bool {
	for _, p := range r.bypassed {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

var workloads = map[string]func(*env) (*result, error){
	"ondevice-bnopt":  runOnDevice,
	"sessions-bnnorm": runSessions,
	"open-noadapt":    runOpen,
}

// metricDef is one metric entry of BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type contract struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload name: ondevice-bnopt, sessions-bnnorm or open-noadapt")
	seed := flag.Int64("seed", 0, "workload seed (required)")
	seconds := flag.Int("seconds", 24, "length of the timed window")
	traceFlag := flag.Int("trace", 0, "1 = also run traced and report per-layer metrics")
	root := flag.String("root", ".", "checkout root")
	serverBin := flag.String("server", ".bench_build/bin/server", "server process binary")
	doTrain := flag.Bool("train", false, "rerun the weights recipe, write the weights and compare digests")
	corrupt := flag.Bool("corrupt-one", false, "self-test: damage one response; the run must fail")
	flag.Parse()

	dir := filepath.Join(*root, "perfbench")
	man, err := fixture.LoadManifest(dir)
	if err != nil {
		return fail(err)
	}
	if *doTrain {
		return retrain(man, dir)
	}
	seedSet := false
	flag.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	w, ok := workloads[*workload]
	switch {
	case !ok:
		return fail(fmt.Errorf("unknown --workload %q", *workload))
	case !seedSet:
		return fail(fmt.Errorf("--seed is required"))
	case *seconds < 1:
		return fail(fmt.Errorf("--seconds must be at least 1"))
	case *traceFlag != 0 && *traceFlag != 1:
		return fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	raw, err := os.ReadFile(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	var bm contract
	if err := json.Unmarshal(raw, &bm); err != nil {
		return fail(fmt.Errorf("parse BENCHMARK.json: %w", err))
	}
	work := filepath.Join(*root, ".bench_build", "tmp")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return fail(err)
	}
	e := &env{dir: dir, work: work, serverBin: *serverBin, man: man, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, corruptOne: *corrupt}

	fmt.Printf("workload %s  seed %d  seconds %d  trace %d  pool_width %d  gomaxprocs %d\n",
		*workload, *seed, *seconds, *traceFlag, parallel.Workers(), runtime.GOMAXPROCS(0))
	base, err := measure(w, e)
	if err != nil {
		return fail(err)
	}
	printReport("untraced", base, bm)
	out, metrics := base, bm.EndToEnd
	if *traceFlag == 1 {
		e.traced, e.tr = true, &tracer{}
		traced, err := measure(w, e)
		if err != nil {
			return fail(err)
		}
		printReport("traced", traced, bm)
		fmt.Println("tracing overhead (untraced -> traced, same seed):")
		for _, m := range append(append([]metricDef(nil), bm.EndToEnd...), bm.PerLayer...) {
			b, ok := base.metrics[m.Name]
			if !ok || b == 0 {
				continue
			}
			t := traced.metrics[m.Name]
			fmt.Printf("  %-24s %12.4f -> %12.4f %-6s (%+.1f%%)\n", m.Name, b, t, m.Unit, 100*(t-b)/b)
		}
		if traced.inputDigest != base.inputDigest {
			traced.failed++
			fmt.Println("FAIL: traced run fed different inputs than the untraced run")
		}
		traceDir := filepath.Join(*root, ".bench_build", "trace")
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return fail(err)
		}
		if err := e.tr.write(path); err != nil {
			return fail(err)
		}
		fmt.Printf("spans: %s (%d)\n", path, len(e.tr.spans))
		traced.attempted += base.attempted
		traced.failed += base.failed
		out, metrics = traced, bm.PerLayer
	}

	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]map[string]any{}}
	for _, m := range metrics {
		v, ok := out.metrics[m.Name]
		if !ok && !out.isBypassed(m.Name) {
			return fail(fmt.Errorf("workload %s produced no %s", *workload, m.Name))
		}
		line.Metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(enc))
	if !line.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d outputs or serve counters failed their checks\n", out.failed, out.attempted)
		return 1
	}
	return 0
}

// measure runs the workload and adds fail_pct: failed requests, refusals
// and output-check mismatches over the requests attempted.
func measure(w func(*env) (*result, error), e *env) (*result, error) {
	r, err := w(e)
	if err != nil {
		return nil, err
	}
	r.metrics["fail_pct"] = 100 * float64(r.failed) / math.Max(1, float64(r.attempted))
	return r, nil
}

// printReport prints every metric the run produced, by name and unit, in
// BENCHMARK.json's order, then the workload's notes.
func printReport(label string, r *result, bm contract) {
	fmt.Printf("-- %s run: attempted %d, failed %d, inputs_sha256 %s\n", label, r.attempted, r.failed, r.inputDigest)
	for _, set := range [][]metricDef{bm.EndToEnd, bm.PerLayer} {
		for _, m := range set {
			if v, ok := r.metrics[m.Name]; ok {
				fmt.Printf("  %-28s %14.4f %s\n", m.Name, v, m.Unit)
			} else if r.isBypassed(m.Name) && label == "traced" {
				fmt.Printf("  %-28s %14s (layer bypassed by this workload)\n", m.Name, "0")
			}
		}
	}
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 2
}

// retrain reruns the recipe for every shipped model, overwrites the
// weights and reports whether each digest matches the manifest.
func retrain(man *fixture.Manifest, dir string) int {
	tags := make([]string, 0, len(man.Weights))
	for tag := range man.Weights {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	status := 0
	for _, tag := range tags {
		t0 := time.Now()
		m, err := man.Train(tag)
		if err != nil {
			return fail(err)
		}
		path := filepath.Join(dir, man.Weights[tag].File)
		if err := serialize.SaveFile(path, m); err != nil {
			return fail(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return fail(err)
		}
		got, verdict := fixture.Digest(raw), "matches the manifest"
		if got != man.Weights[tag].SHA256 {
			verdict, status = "DIFFERS from the manifest "+man.Weights[tag].SHA256, 1
		}
		fmt.Printf("%s: trained in %.1fs, %s (%d bytes) sha256 %s %s\n",
			tag, time.Since(t0).Seconds(), path, len(raw), got, verdict)
	}
	return status
}

// hashTensor feeds t's float32 data to h, little-endian.
func hashTensor(h hash.Hash, t *tensor.Tensor) {
	buf := make([]byte, 4*len(t.Data))
	for i, v := range t.Data {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	h.Write(buf)
}

// sameBits reports whether a and b hold bitwise identical float32s.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// damage turns one value into a non-finite one, for the self-test.
func damage(t *tensor.Tensor) {
	t.Data[0] = math.Float32frombits(math.Float32bits(t.Data[0]) | 0x7f800000)
}

// clocks reads wall time and the process's CPU time.
func clocks() (time.Time, time.Duration, error) {
	c, err := fixture.CPUTime()
	return time.Now(), c, err
}

// median of xs (which it sorts).
func median(xs []float64) float64 { return newDist(xs).val(50) }

// subSeed derives a stream seed from the workload seed and a stream index.
func subSeed(seed int64, stream int) int64 { return seed*1_000_003 + int64(stream) }
