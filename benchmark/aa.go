package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// runAA is the A/A check: every workload as two sets of n runs of this same
// code, alternating which set goes first, seeds firstSeed..firstSeed+n-1 in
// both (only, when not empty, restricts it to one workload). It prints, per metric and workload, both medians, their difference
// and each set's spread as a share of the median, beside the bound, and
// returns a non-zero code when the code disagrees with itself by more than
// the bound.
func runAA(spec *benchSpec, only string, n int, firstSeed int64, seconds float64, w io.Writer) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 1, err
	}
	printHost(w)
	fmt.Fprintf(w, "\n%d runs per set, %g s measured per run, seeds %d..%d, sets alternate.\n", n, seconds, firstSeed, firstSeed+int64(n)-1)
	fmt.Fprintf(w, "Spread is the distance between the quartiles of a set as a share of its median.\n\n")
	fmt.Fprintf(w, "| workload | metric | unit | median A | median B | B vs A | spread A | spread B | bound | verdict |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|---|\n")
	code := 0
	var rawTable bytes.Buffer
	for _, wl := range spec.Workloads {
		if only != "" && wl.Name != only {
			continue
		}
		sets, raws := [2]map[string][]float64{{}, {}}, [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for j := 0; j < 2; j++ {
				set := (i + j) % 2
				res, raw, err := runSelf(self, wl.Name, firstSeed+int64(i), seconds)
				if err != nil {
					return 1, fmt.Errorf("%s seed %d: %w", wl.Name, firstSeed+int64(i), err)
				}
				if !res.Correct {
					return 1, fmt.Errorf("%s seed %d: %d of %d operations failed", wl.Name, firstSeed+int64(i), res.Failed, res.Attempted)
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
				for name, v := range raw {
					raws[set][name] = append(raws[set][name], v)
				}
			}
		}
		for _, m := range spec.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			ma, mb := center(a), center(b)
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			// A/A has no better side: either set may be the worse one. The
			// spread of set-up time is reported, not gated, as in the
			// benchmark's acceptance.
			if math.Abs(mb-ma)/ma > m.Bound || (m.Name != "setup_s" && max(sa, sb) > m.Bound) {
				verdict = "OUTSIDE"
				code = 3
			}
			fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %+.2f%% | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				wl.Name, m.Name, m.Unit, num(ma), num(mb), 100*(mb-ma)/ma, 100*sa, 100*sb, 100*m.Bound, verdict)
			if a, b := raws[0][m.Name], raws[1][m.Name]; len(a) > 0 {
				ma, mb := center(a), center(b)
				fmt.Fprintf(&rawTable, "| %s | %s | %s | %s | %s | %+.2f%% | %.2f%% | %.2f%% |\n",
					wl.Name, m.Name, m.Unit, num(ma), num(mb), 100*(mb-ma)/ma, 100*spread(a), 100*spread(b))
			}
		}
	}
	fmt.Fprintf(w, "\nThe same runs before scaling to reference-host units: the wall clock, which is not gated.\n\n")
	fmt.Fprintf(w, "| workload | metric | unit | median A | median B | B vs A | spread A | spread B |\n|---|---|---|---|---|---|---|---|\n")
	_, err = rawTable.WriteTo(w)
	return code, err
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// runSelf runs one untraced benchmark run as a child process, the way the
// driver does, and parses the last line of its output, plus the "raw" lines
// that give the wall-clock readings behind the scaled timings.
func runSelf(self, workload string, seed int64, seconds float64) (*result, map[string]float64, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	raw := make(map[string]float64)
	for _, line := range lines {
		var name string
		var v float64
		if n, _ := fmt.Sscanf(string(line), "raw %s %g", &name, &v); n == 2 {
			raw[name] = v
		}
	}
	return &res, raw, nil
}

// quartiles follows Python's statistics.quantiles(values, n=4), the rule the
// benchmark's acceptance uses: exclusive method, linear interpolation.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func center(values []float64) float64 {
	if len(values) < 2 {
		return values[0]
	}
	_, q2, _ := quartiles(values)
	return q2
}

func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(values)
	return (q3 - q1) / q2
}
