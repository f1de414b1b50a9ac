package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"fsaicomm/internal/core"
	"fsaicomm/internal/testsets"
)

// PaperFilters are the Filter values the paper sweeps in every table.
var PaperFilters = []float64{0.01, 0.05, 0.1, 0.2}

// writeTable renders rows with aligned columns.
func writeTable(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
}

// improvementPct returns the percentage decrease from base to v
// (positive = improvement), the paper's comparison metric.
func improvementPct(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - v) / base
}

// Table1 reproduces the paper's Table 1 (and, with the Table 2 catalog and
// ranks rule, its Table 2): per-matrix solver time, iterations and %NNZ for
// FSAI, FSAIE and FSAIE-Comm with a dynamic Filter.
func Table1(w io.Writer, r *Runner, set []testsets.Spec, filter float64) error {
	fmt.Fprintf(w, "Per-matrix results: FSAI vs FSAIE vs FSAIE-Comm (dynamic Filter %g, arch %s)\n", filter, r.Arch.Name)
	fmt.Fprintf(w, "Solver times are modeled seconds from the %s cost profile; iterations are real CG counts.\n\n", r.Arch.Name)
	var rows [][]string
	for _, spec := range set {
		base, err := r.Run(spec, core.FSAI, 0, core.StaticFilter)
		if err != nil {
			return err
		}
		fe, err := r.Run(spec, core.FSAIE, filter, core.DynamicFilter)
		if err != nil {
			return err
		}
		fc, err := r.Run(spec, core.FSAIEComm, filter, core.DynamicFilter)
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", spec.ID), spec.Name, spec.Class,
			fmt.Sprintf("%d", base.Rows), fmt.Sprintf("%d", base.NNZ), fmt.Sprintf("%d", base.Ranks),
			fmt.Sprintf("%.3e", base.SolveTime), fmt.Sprintf("%d", base.Iterations),
			fmt.Sprintf("%.3e", fe.SolveTime), fmt.Sprintf("%d", fe.Iterations), fmt.Sprintf("%.2f", fe.PctNNZ),
			fmt.Sprintf("%.3e", fc.SolveTime), fmt.Sprintf("%d", fc.Iterations), fmt.Sprintf("%.2f", fc.PctNNZ),
		})
	}
	writeTable(w, []string{
		"ID", "Matrix", "Type", "#rows", "NNZ", "Ranks",
		"FSAI", "Iter",
		"FSAIE", "Iter", "%NNZ",
		"FSAIE-Comm", "Iter", "%NNZ",
	}, rows)
	return nil
}

// GridRow is one line of the filter-sweep averages (Tables 3, 5, 6, 7).
type GridRow struct {
	Label      string
	AvgIterImp float64
	AvgTimeImp float64
	HighestImp float64
	HighestDeg float64 // lowest improvement (negative = degradation)
}

// FilterGrid computes the paper's average tables for one method/strategy:
// per Filter value the average iteration and time improvements over FSAI,
// the best per-matrix improvement, the worst (degradation), plus the "Best
// Filter" row where each matrix picks its best Filter by time.
func FilterGrid(r *Runner, set []testsets.Spec, method core.Method, strategy core.FilterStrategy, filters []float64) ([]GridRow, error) {
	type perMatrix struct {
		iterImp, timeImp []float64 // per filter
	}
	base := make([]Result, len(set))
	for i, spec := range set {
		b, err := r.Run(spec, core.FSAI, 0, core.StaticFilter)
		if err != nil {
			return nil, err
		}
		base[i] = b
	}
	pm := make([]perMatrix, len(set))
	for i, spec := range set {
		for _, f := range filters {
			res, err := r.Run(spec, method, f, strategy)
			if err != nil {
				return nil, err
			}
			pm[i].iterImp = append(pm[i].iterImp, improvementPct(float64(base[i].Iterations), float64(res.Iterations)))
			pm[i].timeImp = append(pm[i].timeImp, improvementPct(base[i].SolveTime, res.SolveTime))
		}
	}
	var out []GridRow
	for fi, f := range filters {
		row := GridRow{Label: fmt.Sprintf("%g", f), HighestImp: -1e18, HighestDeg: 1e18}
		for i := range set {
			row.AvgIterImp += pm[i].iterImp[fi]
			row.AvgTimeImp += pm[i].timeImp[fi]
			if pm[i].timeImp[fi] > row.HighestImp {
				row.HighestImp = pm[i].timeImp[fi]
			}
			if pm[i].timeImp[fi] < row.HighestDeg {
				row.HighestDeg = pm[i].timeImp[fi]
			}
		}
		row.AvgIterImp /= float64(len(set))
		row.AvgTimeImp /= float64(len(set))
		out = append(out, row)
	}
	// Best Filter: per matrix, the filter with the highest time improvement.
	best := GridRow{Label: "Best Filter", HighestImp: -1e18, HighestDeg: 1e18}
	for i := range set {
		bi := 0
		for fi := range filters {
			if pm[i].timeImp[fi] > pm[i].timeImp[bi] {
				bi = fi
			}
		}
		best.AvgIterImp += pm[i].iterImp[bi]
		best.AvgTimeImp += pm[i].timeImp[bi]
		if pm[i].timeImp[bi] > best.HighestImp {
			best.HighestImp = pm[i].timeImp[bi]
		}
		if pm[i].timeImp[bi] < best.HighestDeg {
			best.HighestDeg = pm[i].timeImp[bi]
		}
	}
	best.AvgIterImp /= float64(len(set))
	best.AvgTimeImp /= float64(len(set))
	out = append(out, best)
	return out, nil
}

// WriteFilterGrid renders one method/strategy block of Tables 3/5/6/7.
func WriteFilterGrid(w io.Writer, r *Runner, set []testsets.Spec, method core.Method, strategy core.FilterStrategy, filters []float64) error {
	rows, err := FilterGrid(r, set, method, strategy, filters)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s - %s Filter (arch %s, %d matrices)\n", method, strategy, r.Arch.Name, len(set))
	var cells [][]string
	for _, g := range rows {
		cells = append(cells, []string{
			g.Label,
			fmt.Sprintf("%.2f", g.AvgIterImp),
			fmt.Sprintf("%.2f", g.AvgTimeImp),
			fmt.Sprintf("%.2f", g.HighestImp),
			fmt.Sprintf("%.2f", g.HighestDeg),
		})
	}
	writeTable(w, []string{"Filter", "Avg iter imp %", "Avg time imp %", "Highest imp %", "Lowest imp %"}, cells)
	fmt.Fprintln(w)
	return nil
}

// Table3 renders the full Table 3: FSAIE and FSAIE-Comm under static and
// dynamic filtering.
func Table3(w io.Writer, r *Runner, set []testsets.Spec) error {
	for _, method := range []core.Method{core.FSAIE, core.FSAIEComm} {
		for _, strategy := range []core.FilterStrategy{core.StaticFilter, core.DynamicFilter} {
			if err := WriteFilterGrid(w, r, set, method, strategy, PaperFilters); err != nil {
				return err
			}
		}
	}
	return nil
}

// SeriesPoint is one matrix's value in a figure series.
type SeriesPoint struct {
	Spec  testsets.Spec
	Value float64
}

// PerMatrixTimeDecrease reproduces Figures 2/4/6/8: per matrix, the
// time-to-solution decrease of FSAIE-Comm vs FSAI for the best Filter and
// for one fixed Filter (both dynamic strategy, as the paper plots).
func PerMatrixTimeDecrease(r *Runner, set []testsets.Spec, fixedFilter float64) (best, fixed []SeriesPoint, err error) {
	for _, spec := range set {
		base, err := r.Run(spec, core.FSAI, 0, core.StaticFilter)
		if err != nil {
			return nil, nil, err
		}
		bestImp := -1e18
		var fixedImp float64
		for _, f := range PaperFilters {
			res, err := r.Run(spec, core.FSAIEComm, f, core.DynamicFilter)
			if err != nil {
				return nil, nil, err
			}
			imp := improvementPct(base.SolveTime, res.SolveTime)
			if imp > bestImp {
				bestImp = imp
			}
			if f == fixedFilter {
				fixedImp = imp
			}
		}
		best = append(best, SeriesPoint{spec, bestImp})
		fixed = append(fixed, SeriesPoint{spec, fixedImp})
	}
	return best, fixed, nil
}

// WritePerMatrixFigure renders a Figure 2/4/6/8 series as text columns.
func WritePerMatrixFigure(w io.Writer, r *Runner, set []testsets.Spec, fixedFilter float64) error {
	best, fixed, err := PerMatrixTimeDecrease(r, set, fixedFilter)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Time decrease of FSAIE-Comm vs FSAI (arch %s): best Filter and Filter=%g\n", r.Arch.Name, fixedFilter)
	var rows [][]string
	var sumBest, sumFixed float64
	for i := range best {
		rows = append(rows, []string{
			fmt.Sprintf("%d", best[i].Spec.ID),
			best[i].Spec.Name,
			fmt.Sprintf("%.2f", best[i].Value),
			fmt.Sprintf("%.2f", fixed[i].Value),
		})
		sumBest += best[i].Value
		sumFixed += fixed[i].Value
	}
	rows = append(rows, []string{"", "AVERAGE",
		fmt.Sprintf("%.2f", sumBest/float64(len(best))),
		fmt.Sprintf("%.2f", sumFixed/float64(len(fixed)))})
	writeTable(w, []string{"ID", "Matrix", "Best Filter %", fmt.Sprintf("Filter=%g %%", fixedFilter)}, rows)
	fmt.Fprintln(w)
	return nil
}

// HybridRow is one line of Table 4.
type HybridRow struct {
	CoresPerProcess      int
	IterDecE, IterDecC   float64 // FSAIE / FSAIE-Comm average iteration decrease %
	TimeDecE, TimeDecC   float64
	FlopsIncE, FlopsIncC float64 // preconditioning SpMV GFLOP/s increase %, unfiltered
}

// Hybrid reproduces Table 4: the influence of the cores-per-process hybrid
// configuration. Rank counts scale inversely with cores per process at a
// fixed per-core workload; process cache capacity scales with it.
func Hybrid(arch func(cores int) *Runner, set []testsets.Spec, coresList []int) ([]HybridRow, error) {
	var out []HybridRow
	for _, cores := range coresList {
		r := arch(cores)
		row := HybridRow{CoresPerProcess: cores}
		for _, spec := range set {
			base, err := r.Run(spec, core.FSAI, 0, core.StaticFilter)
			if err != nil {
				return nil, err
			}
			// Best dynamic filter per matrix, as Table 4 specifies.
			bestE, bestC := Result{}, Result{}
			bestETime, bestCTime := 1e18, 1e18
			for _, f := range PaperFilters {
				re, err := r.Run(spec, core.FSAIE, f, core.DynamicFilter)
				if err != nil {
					return nil, err
				}
				rc, err := r.Run(spec, core.FSAIEComm, f, core.DynamicFilter)
				if err != nil {
					return nil, err
				}
				if re.SolveTime < bestETime {
					bestETime, bestE = re.SolveTime, re
				}
				if rc.SolveTime < bestCTime {
					bestCTime, bestC = rc.SolveTime, rc
				}
			}
			row.IterDecE += improvementPct(float64(base.Iterations), float64(bestE.Iterations))
			row.IterDecC += improvementPct(float64(base.Iterations), float64(bestC.Iterations))
			row.TimeDecE += improvementPct(base.SolveTime, bestE.SolveTime)
			row.TimeDecC += improvementPct(base.SolveTime, bestC.SolveTime)
			// FLOPs measured without filtering, as §5.3.2 states.
			fe, err := r.Run(spec, core.FSAIE, 0, core.StaticFilter)
			if err != nil {
				return nil, err
			}
			fc, err := r.Run(spec, core.FSAIEComm, 0, core.StaticFilter)
			if err != nil {
				return nil, err
			}
			row.FlopsIncE += 100 * (fe.GFlopsPrecond - base.GFlopsPrecond) / base.GFlopsPrecond
			row.FlopsIncC += 100 * (fc.GFlopsPrecond - base.GFlopsPrecond) / base.GFlopsPrecond
		}
		n := float64(len(set))
		row.IterDecE /= n
		row.IterDecC /= n
		row.TimeDecE /= n
		row.TimeDecC /= n
		row.FlopsIncE /= n
		row.FlopsIncC /= n
		out = append(out, row)
	}
	return out, nil
}

// WriteHybrid renders Table 4. Every runner of the sweep shares one profile
// but for its cores per process; the header names it.
func WriteHybrid(w io.Writer, arch func(cores int) *Runner, set []testsets.Spec, coresList []int) error {
	rows, err := Hybrid(arch, set, coresList)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Hybrid configuration sweep (FSAIE/FSAIE-Comm vs FSAI, best dynamic Filter, arch %s)\n", arch(1).Arch.Name)
	var cells [][]string
	for _, h := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", h.CoresPerProcess),
			fmt.Sprintf("%.2f/%.2f", h.IterDecE, h.IterDecC),
			fmt.Sprintf("%.2f/%.2f", h.TimeDecE, h.TimeDecC),
			fmt.Sprintf("%.2f/%.2f", h.FlopsIncE, h.FlopsIncC),
		})
	}
	writeTable(w, []string{"CPU/Process", "Iter. dec. %", "Time dec. %", "FLOPs inc. %"}, cells)
	fmt.Fprintln(w)
	return nil
}

// HistogramSeries reproduces Figures 3a/5a (metric "misses") and 3b/5b/7
// (metric "gflops"): the per-matrix values for FSAI versus unfiltered
// FSAIE-Comm, which the paper displays as histograms.
func HistogramSeries(r *Runner, set []testsets.Spec, metric string) (base, ext []SeriesPoint, err error) {
	for _, spec := range set {
		b, err := r.Run(spec, core.FSAI, 0, core.StaticFilter)
		if err != nil {
			return nil, nil, err
		}
		e, err := r.Run(spec, core.FSAIEComm, 0, core.StaticFilter) // without filtering, per the figures
		if err != nil {
			return nil, nil, err
		}
		switch metric {
		case "misses":
			base = append(base, SeriesPoint{spec, b.MissesPerNNZ})
			ext = append(ext, SeriesPoint{spec, e.MissesPerNNZ})
		case "gflops":
			base = append(base, SeriesPoint{spec, b.GFlopsPrecond})
			ext = append(ext, SeriesPoint{spec, e.GFlopsPrecond})
		default:
			return nil, nil, fmt.Errorf("experiments: unknown histogram metric %q", metric)
		}
	}
	return base, ext, nil
}

// WriteHistogram renders a figure histogram: per-matrix values plus a
// binned text histogram comparing FSAI (baseline) and FSAIE-Comm.
func WriteHistogram(w io.Writer, r *Runner, set []testsets.Spec, metric, title string) error {
	base, ext, err := HistogramSeries(r, set, metric)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s (arch %s, unfiltered extension)\n", title, r.Arch.Name)
	var rows [][]string
	var bs, es float64
	for i := range base {
		rows = append(rows, []string{
			fmt.Sprintf("%d", base[i].Spec.ID), base[i].Spec.Name,
			fmt.Sprintf("%.4f", base[i].Value), fmt.Sprintf("%.4f", ext[i].Value),
		})
		bs += base[i].Value
		es += ext[i].Value
	}
	rows = append(rows, []string{"", "AVERAGE",
		fmt.Sprintf("%.4f", bs/float64(len(base))), fmt.Sprintf("%.4f", es/float64(len(ext)))})
	writeTable(w, []string{"ID", "Matrix", "FSAI", "FSAIE-Comm"}, rows)
	fmt.Fprintln(w)
	writeBins(w, "FSAI", pointValues(base))
	writeBins(w, "FSAIE-Comm", pointValues(ext))
	fmt.Fprintln(w)
	return nil
}

func pointValues(ps []SeriesPoint) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.Value
	}
	return out
}

// writeBins prints a 10-bin text histogram of vals.
func writeBins(w io.Writer, label string, vals []float64) {
	if len(vals) == 0 {
		return
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	lo, hi := sorted[0], sorted[len(sorted)-1]
	if hi == lo {
		hi = lo + 1
	}
	const bins = 10
	counts := make([]int, bins)
	for _, v := range vals {
		b := int(float64(bins) * (v - lo) / (hi - lo))
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	fmt.Fprintf(w, "%-12s", label)
	for b := 0; b < bins; b++ {
		fmt.Fprintf(w, " [%5.2f:%2d]", lo+(hi-lo)*float64(b)/bins, counts[b])
	}
	fmt.Fprintln(w)
}

// ImbalanceStudy reproduces the §5.3.3 case study on the imbalanced catalog
// matrix (consph-sim): imbalance index of the FSAI partition, of the
// FSAIE-Comm extension under a static filter, and after dynamic filtering,
// with the corresponding iteration and time improvements.
type ImbalanceStudy struct {
	BaseIndex, StaticIndex, DynamicIndex float64
	StaticTimeImp, DynamicTimeImp        float64
	StaticIterImp, DynamicIterImp        float64
}

// RunImbalanceStudy executes the case study with the given Filter.
func RunImbalanceStudy(r *Runner, spec testsets.Spec, filter float64) (ImbalanceStudy, error) {
	var out ImbalanceStudy
	base, err := r.Run(spec, core.FSAI, 0, core.StaticFilter)
	if err != nil {
		return out, err
	}
	st, err := r.Run(spec, core.FSAIEComm, filter, core.StaticFilter)
	if err != nil {
		return out, err
	}
	dy, err := r.Run(spec, core.FSAIEComm, filter, core.DynamicFilter)
	if err != nil {
		return out, err
	}
	out.BaseIndex = base.ImbalanceIndex
	out.StaticIndex = st.ImbalanceIndex
	out.DynamicIndex = dy.ImbalanceIndex
	out.StaticTimeImp = improvementPct(base.SolveTime, st.SolveTime)
	out.DynamicTimeImp = improvementPct(base.SolveTime, dy.SolveTime)
	out.StaticIterImp = improvementPct(float64(base.Iterations), float64(st.Iterations))
	out.DynamicIterImp = improvementPct(float64(base.Iterations), float64(dy.Iterations))
	return out, nil
}

// WriteImbalanceStudy renders the case study.
func WriteImbalanceStudy(w io.Writer, r *Runner, spec testsets.Spec, filter float64) error {
	s, err := RunImbalanceStudy(r, spec, filter)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Imbalance case study on %s (Filter %g, arch %s)\n", spec.Name, filter, r.Arch.Name)
	writeTable(w, []string{"Configuration", "Imbalance index", "Iter imp %", "Time imp %"}, [][]string{
		{"FSAI (baseline partition)", fmt.Sprintf("%.3f", s.BaseIndex), "0.00", "0.00"},
		{"FSAIE-Comm static filter", fmt.Sprintf("%.3f", s.StaticIndex), fmt.Sprintf("%.2f", s.StaticIterImp), fmt.Sprintf("%.2f", s.StaticTimeImp)},
		{"FSAIE-Comm dynamic filter", fmt.Sprintf("%.3f", s.DynamicIndex), fmt.Sprintf("%.2f", s.DynamicIterImp), fmt.Sprintf("%.2f", s.DynamicTimeImp)},
	})
	fmt.Fprintln(w)
	return nil
}
