// Command fsaibench regenerates the tables and figures of the paper's
// evaluation section on the synthetic catalogs.
//
// Usage:
//
//	fsaibench -exp table1 [-set quick|full] [-arch skylake|a64fx|zen2]
//	fsaibench -exp all -set quick
//
// Experiments: table1 table2 table3 table4 table5 table6 table7
// fig2 fig3a fig3b fig4 fig5a fig5b fig6 fig7 fig8 imbalance all.
// The quick set (default) is a 7-matrix class-representative subset of
// Table 1; -set full runs the whole 39-matrix catalog (minutes, not
// seconds).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"fsaicomm/internal/archmodel"
	"fsaicomm/internal/core"
	"fsaicomm/internal/experiments"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/testsets"
)

// order is the sequence -exp all runs.
var order = []string{"table1", "table2", "table3", "table4", "table5", "table6", "table7",
	"fig2", "fig3a", "fig3b", "fig4", "fig5a", "fig5b", "fig6", "fig7", "fig8", "imbalance"}

func main() {
	exp := flag.String("exp", "all", "experiment id (table1..table7, fig2..fig8, imbalance, all)")
	set := flag.String("set", "quick", "matrix set: quick (7 matrices) or full (39)")
	arch := flag.String("arch", "", "override architecture (skylake, a64fx, zen2); default per experiment")
	workers := flag.Int("workers", 0, "setup worker threads per simulated rank (0 = 1 per rank)")
	cg := flag.String("cg", "classic", "distributed CG loop: classic, classic-overlap, fused or pipelined")
	flag.Parse()

	if err := run(*exp, *set, *arch, *workers, *cg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fsaibench:", err)
		os.Exit(1)
	}
}

func run(exp, set, archOverride string, workers int, cg string, out io.Writer) error {
	variant, err := krylov.ParseCGVariant(cg)
	if err != nil {
		return err
	}
	var override *archmodel.Profile
	if archOverride != "" {
		p, err := archmodel.ByName(archOverride)
		if err != nil {
			return err
		}
		override = &p
	}
	t1set := testsets.QuickSet()
	if set == "full" {
		t1set = testsets.Table1()
	} else if set != "quick" {
		return fmt.Errorf("unknown set %q", set)
	}
	t2set := testsets.Table2()
	if set == "quick" {
		t2set = t2set[:3]
	}

	// Runners are shared per architecture and rank rule so experiments reuse
	// each other's memoized builds and solves (fig2 reuses table1/table3's
	// Skylake work, fig4/fig5 reuse table5's A64FX work, and so on). large
	// selects the Table 2 rank rule.
	cache := map[string]*experiments.Runner{}
	runner := func(arch archmodel.Profile, large bool) *experiments.Runner {
		if override != nil {
			arch = *override
		}
		key := arch.Name
		if large {
			key += "-large"
		}
		if r, ok := cache[key]; ok {
			return r
		}
		r := experiments.NewRunner(arch)
		if large {
			r.RanksOf = testsets.LargeRanks
		}
		r.Workers = workers
		r.Variant = variant
		cache[key] = r
		return r
	}
	grid := func(r *experiments.Runner, set []testsets.Spec) error {
		return experiments.WriteFilterGrid(out, r, set, core.FSAIEComm, core.DynamicFilter, experiments.PaperFilters)
	}
	histogram := func(arch archmodel.Profile, metric, title string) error {
		return experiments.WriteHistogram(out, runner(arch, false), t1set, metric, title)
	}

	dispatch := map[string]func() error{
		"table1": func() error { return experiments.Table1(out, runner(archmodel.Skylake, false), t1set, 0.01) },
		"table2": func() error { return experiments.Table1(out, runner(archmodel.Zen2, true), t2set, 0.01) },
		"table3": func() error { return experiments.Table3(out, runner(archmodel.Skylake, false), t1set) },
		"table4": func() error {
			// Fixed per-core workload: the process count scales inversely
			// with cores per process, as in the paper's hybrid sweep. These
			// runners change both the profile and the rank rule, so they do
			// not share the per-architecture cache.
			arch := archmodel.Skylake
			if override != nil {
				arch = *override
			}
			mk := func(cores int) *experiments.Runner {
				r := experiments.NewRunner(arch.WithCoresPerProcess(cores))
				r.RanksOf = func(nnz int) int {
					return testsets.RanksFor(nnz, 2048*cores, 1, 16)
				}
				r.Workers = workers
				r.Variant = variant
				return r
			}
			return experiments.WriteHybrid(out, mk, t1set, []int{1, 2, 4, 8, 48})
		},
		"table5": func() error { return grid(runner(archmodel.A64FX, false), t1set) },
		"table6": func() error { return grid(runner(archmodel.Zen2, false), t1set) },
		"table7": func() error { return grid(runner(archmodel.Zen2, true), t2set) },
		"fig2": func() error {
			return experiments.WritePerMatrixFigure(out, runner(archmodel.Skylake, false), t1set, 0.01)
		},
		"fig3a": func() error {
			return histogram(archmodel.Skylake, "misses", "Figure 3a: L1 DCM on x in GᵀGx per G nnz")
		},
		"fig3b": func() error {
			return histogram(archmodel.Skylake, "gflops", "Figure 3b: GFLOP/s per process in GᵀGx")
		},
		"fig4": func() error {
			return experiments.WritePerMatrixFigure(out, runner(archmodel.A64FX, false), t1set, 0.05)
		},
		"fig5a": func() error {
			return histogram(archmodel.A64FX, "misses", "Figure 5a: L1 DCM on x in GᵀGx per G nnz")
		},
		"fig5b": func() error {
			return histogram(archmodel.A64FX, "gflops", "Figure 5b: GFLOP/s per process in GᵀGx")
		},
		"fig6": func() error {
			return experiments.WritePerMatrixFigure(out, runner(archmodel.Zen2, false), t1set, 0.05)
		},
		"fig7": func() error {
			return histogram(archmodel.Zen2, "gflops", "Figure 7: GFLOP/s per process in GᵀGx")
		},
		"fig8": func() error {
			return experiments.WritePerMatrixFigure(out, runner(archmodel.Zen2, true), t2set, 0.01)
		},
		"imbalance": func() error {
			spec, err := testsets.ByName("consph-sim")
			if err != nil {
				return err
			}
			return experiments.WriteImbalanceStudy(out, runner(archmodel.Skylake, false), spec, 0.01)
		},
	}

	start := time.Now()
	if exp == "all" {
		for _, id := range order {
			fmt.Fprintf(out, "================ %s ================\n", id)
			if err := dispatch[id](); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
		}
	} else {
		fn, ok := dispatch[exp]
		if !ok {
			return fmt.Errorf("unknown experiment %q", exp)
		}
		if err := fn(); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "\n[fsaibench] completed %q on set %q in %v\n", exp, set, time.Since(start).Round(time.Millisecond))
	return nil
}
