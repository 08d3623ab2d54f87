// Command perfbench is the repository's benchmark: it runs one workload
// against the Logical Disk stack, checks every byte it reads back, and
// prints the metrics BENCHMARK.json names.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see README.md for why each exists and which layer metric
// should move which end-to-end metric):
//
//	paper-minix       MINIX LLD on the simulated HP C3010: Table 4's small
//	                  files and Table 5's large file, then an unclean stop,
//	                  one-sweep recovery and a verifying remount.
//	ld-hotcold        in-process LLD, 2 closed-loop clients, 50/50
//	                  Read/Write with 90% of accesses on 10% of the blocks.
//	netld-readmostly  the same LLD behind netld/server on TCP loopback,
//	                  2 client connections, 85% Read / 5% ReadBlocks /
//	                  10% Write.
//
// With --trace 0 the last output line carries the end-to-end metrics;
// with --trace 1 the run wraps each layer's public surface (vfs.FileSystem,
// ld.Disk, disk.Backend, the netld client), alternates traced and untraced
// windows, and the last line carries the per-layer metrics and the
// tracing overhead. Every workload runs LLD with lld.DefaultOptions().
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// spec is the part of BENCHMARK.json the program reads: the metric names
// and units it must print.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil for the untraced end-to-end run
}

// report is a workload's outcome.
type report struct {
	attempted, failed int64
	retries           int64 // netld reconnects
	errs              []string
	e2e               map[string]sample
	layer             map[string]float64
	host              map[string]any
}

// sample is a measured value with the number of observations behind it.
type sample struct {
	v float64
	n int
}

func newReport() *report {
	return &report{e2e: map[string]sample{}, layer: map[string]float64{}, host: map[string]any{}}
}

// fail counts a failed operation; the first few reasons are kept.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// merge adds another report's counts and failure reasons.
func (r *report) merge(o *report) {
	r.attempted += o.attempted
	r.failed += o.failed
	for _, e := range o.errs {
		if len(r.errs) < 10 {
			r.errs = append(r.errs, e)
		}
	}
}

var workloads = map[string]func(runConfig) (*report, error){
	"paper-minix":      runPaper,
	"ld-hotcold":       runHotCold,
	"netld-readmostly": runNetLD,
}

func main() {
	workload := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 10, "seconds to measure")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	outdir := flag.String("outdir", ".bench_build/traces", "directory for span files")
	flag.Parse()

	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	run, ok := workloads[*workload]
	if !ok || !sp.hasWorkload(*workload) {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if *trace == 1 {
		cfg.tr = newTracer()
	}
	rep, err := run(cfg)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}

	rep.host["nproc"] = runtime.NumCPU()
	rep.host["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.host["go"] = runtime.Version()
	host, _ := json.Marshal(rep.host)
	fmt.Printf("host %s\n", host)
	fmt.Printf("retries %d\n", rep.retries)
	for _, e := range rep.errs {
		fmt.Printf("FAILED %s\n", e)
	}

	metrics := map[string]map[string]any{}
	if cfg.tr == nil {
		for _, m := range sp.EndToEnd {
			s, ok := rep.e2e[m.Name]
			if !ok || s.v == 0 || math.IsNaN(s.v) || math.IsInf(s.v, 0) {
				fatal(fmt.Errorf("%s: end-to-end metric %s not measured (%v)", *workload, m.Name, s.v))
			}
			fmt.Printf("metric %-28s %14.4f %-8s n=%d\n", m.Name, s.v, m.Unit, s.n)
			metrics[m.Name] = map[string]any{"value": s.v, "unit": m.Unit}
		}
	} else {
		path, err := cfg.tr.write(*outdir, fmt.Sprintf("%s-seed%d.spans.jsonl", *workload, *seed))
		if err != nil {
			fatal(fmt.Errorf("writing spans: %w", err))
		}
		fmt.Printf("spans %s\n", path)
		for _, m := range sp.PerLayer {
			v := rep.layer[m.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			fmt.Printf("layer %-44s %14.4f %s\n", m.Name, v, m.Unit)
			metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
		}
	}
	out, _ := json.Marshal(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	fmt.Println(string(out))
	if rep.failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

func (sp *spec) hasWorkload(name string) bool {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// quantile returns the nearest-rank q-quantile of ds in microseconds; ds
// is sorted in place.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(ds[i]) / float64(time.Microsecond)
}

// median returns the median of vs (the mean of the middle two for an even
// count), leaving vs unchanged.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
