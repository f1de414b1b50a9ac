package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"fsaicomm/internal/archmodel"
	"fsaicomm/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden from this build")

// TestTablesGolden pins the rendered text of the tables on tinySet at three
// ranks: Table 1, a two-Filter grid, both histograms and the hybrid sweep.
// The modeled times print as %.3e and the iterations exactly, so any change
// to a partition, a factor bit, a solve or the cost model shows up here.
func TestTablesGolden(t *testing.T) {
	set := tinySet()
	r := tinyRunner(archmodel.Skylake)
	var buf bytes.Buffer
	steps := []func() error{
		func() error { return Table1(&buf, r, set, 0.01) },
		func() error {
			return WriteFilterGrid(&buf, r, set, core.FSAIEComm, core.DynamicFilter, []float64{0.01, 0.2})
		},
		func() error { return WriteHistogram(&buf, r, set, "misses", "misses per nnz") },
		func() error { return WriteHistogram(&buf, r, set, "gflops", "GFLOP/s per process") },
		func() error {
			mk := func(cores int) *Runner { return tinyRunner(archmodel.Skylake.WithCoresPerProcess(cores)) }
			return WriteHybrid(&buf, mk, set, []int{1, 8})
		},
	}
	for _, step := range steps {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "tables.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("tables differ from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}
