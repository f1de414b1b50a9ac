// Command benchmark is the repo benchmark: it builds cmd/fsaiserve, runs it
// as a child process on loopback, drives one workload through it in a closed
// loop, checks every answer and prints every metric by name with its unit.
// BENCHMARK.json at the repo root names the workloads and metrics; README.md
// in this directory defines them.
//
// Usage (from this directory; run.sh builds and forwards its arguments):
//
//	benchmark -workload warm-sim -seed 1 -seconds 25 -trace 0   end-to-end metrics
//	benchmark -workload warm-sim -seed 1 -seconds 25 -trace 1   per-layer metrics + span file
//	benchmark -aa 10                                            A/A check of every workload
//	benchmark -workload warm-sim -quick                         tiny inputs, code path only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"syscall"
	"time"

	"fsaicomm/internal/mprun"
)

// metricSpec and benchSpec mirror BENCHMARK.json, the one place metric names
// and units are written down.
type metricSpec struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// result is the contract's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// report turns measured values into the result: exactly the metrics the spec
// lists for this kind of run, each with the spec's unit.
func report(specs []metricSpec, values map[string]float64, attempted, failed int, log io.Writer) (*result, error) {
	res := &result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(specs))}
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if !metricName.MatchString(m.Name) || m.Unit == "" {
			return nil, fmt.Errorf("metric %q (unit %q) is not a valid name with a unit", m.Name, m.Unit)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(log, "metric %-42s %16.6f %s\n", m.Name, v, m.Unit)
	}
	fmt.Fprintf(log, "attempted %d failed %d\n", attempted, failed)
	return res, nil
}

// buildServer compiles cmd/fsaiserve from the checkout this module sits in.
func buildServer(dir string) (string, error) {
	bin := filepath.Join(dir, "fsaiserve")
	cmd := exec.Command("go", "build", "-o", bin, "fsaicomm/cmd/fsaiserve")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building fsaiserve: %w", err)
	}
	return bin, nil
}

func main() {
	// In-process tcp solves of the traced run spawn rank workers by
	// re-executing this binary; those copies divert here.
	mprun.MaybeWorker()
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 0, "measured seconds (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1: traced run, per-layer metrics and a span file under out/")
		quick   = flag.Bool("quick", false, "tiny inputs and ~1 s windows: exercises the code path, times nothing worth reading")
		aa      = flag.Int("aa", 0, "run every workload as two alternating sets of N runs and compare their medians")
	)
	flag.Parse()
	code, err := run(*name, *seed, *seconds, *trace != 0, *quick, *aa)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(name string, seed int64, seconds float64, trace, quick bool, aa int) (code int, err error) {
	// Whatever ends this process — signal or panic — no server or rank
	// worker may outlive it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()
	defer func() {
		if p := recover(); p != nil {
			killAll()
			panic(p)
		}
	}()

	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return 1, err
	}
	if seconds == 0 {
		seconds = float64(spec.RunSeconds)
	}
	if aa > 0 {
		return runAA(spec, name, aa, seed, seconds, os.Stdout)
	}
	w := workloadByName(name)
	if w == nil {
		return 2, fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(filepath.Join("out", "bin"), 0o755); err != nil {
		return 1, err
	}
	bin, err := buildServer(filepath.Join("out", "bin"))
	if err != nil {
		return 1, err
	}
	printHost(os.Stdout)
	cfg := config{w: w, seed: seed, seconds: seconds, trace: trace, quick: quick, bin: bin, outDir: "out", log: os.Stdout}
	res, err := runWorkload(cfg, spec)
	if err != nil {
		return 1, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Printf("%s\n", line)
	return 0, nil
}

// runWorkload is one benchmark run: the end-to-end metrics with tracing off,
// or the per-layer metrics of a traced run.
func runWorkload(cfg config, spec *benchSpec) (*result, error) {
	fmt.Fprintf(cfg.log, "workload %s seed %d seconds %g trace %v quick %v\n",
		cfg.w.name, cfg.seed, cfg.seconds, cfg.trace, cfg.quick)
	if cfg.quick {
		cfg.seconds = min(cfg.seconds, 1)
	}
	if cfg.trace {
		return runTraced(cfg, spec)
	}
	r := newRunner(cfg, newTracer())
	setups := make([]time.Duration, setupRuns)
	setupProbes := []time.Duration{r.probe.run()}
	for i := range setups {
		if r.srv != nil {
			r.srv.stop()
		}
		d, err := r.setup()
		if err != nil {
			return nil, err
		}
		setups[i] = d
		setupProbes = append(setupProbes, r.probe.run())
	}
	defer r.srv.stop()
	for i := 0; i < warmups; i++ {
		r.unit()
	}
	var m measured
	r.loop(time.Duration(cfg.seconds*float64(time.Second)), &m)
	lat := okLatencies(m.samples)
	fmt.Fprintf(cfg.log, "setups %v\nsamples %d p90 %.3f ms max %.3f ms\n", setups, len(lat), ms(quantile(lat, 0.9)), ms(quantile(lat, 1)))
	values, raw := endToEnd(&m, setups, setupProbes)
	fmt.Fprintf(cfg.log, "probe %.3f ms during set-up, %.3f ms during the window, reference %.3f ms\n",
		ms(median(setupProbes)), ms(median(m.probes)), ms(probeRef))
	for _, name := range []string{"setup_s", "solve_p50_ms", "rhs_per_s"} {
		fmt.Fprintf(cfg.log, "raw %s %.6f\n", name, raw[name])
	}
	return report(spec.EndToEnd, values, r.attempted, r.failed, cfg.log)
}

const (
	setupRuns = 3 // fresh servers the set-up time is the median of
	warmups   = 3 // unmeasured units of work before a measured phase
)
