package krylov

import "fmt"

// Precision selects the value-storage width of the FSAI factors and the
// operator inside a solve. It is a SETUP-level knob: the narrowed factors
// are part of the prepared state (and of the prepared-system cache key), not
// a per-solve toggle.
type Precision int

const (
	// FP64 is full double precision throughout — the default and the
	// reference every mixed-precision claim is checked against.
	FP64 Precision = iota
	// FP32 stores factor (and operator) values in float32 and runs the CG
	// loop as the inner solve of an FP64 iterative-refinement outer loop
	// (DistCGRefined): halo traffic halves, products
	// accumulate in float64, and the refinement recovers FP64 accuracy.
	FP32
)

// String returns the flag spelling of the precision.
func (p Precision) String() string {
	switch p {
	case FP64:
		return "fp64"
	case FP32:
		return "fp32"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// ParsePrecision parses the -precision flag spellings: "fp64" and "fp32".
// The empty string is FP64.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "fp64":
		return FP64, nil
	case "fp32":
		return FP32, nil
	default:
		return FP64, fmt.Errorf("krylov: unknown precision %q (want fp64 or fp32)", s)
	}
}
