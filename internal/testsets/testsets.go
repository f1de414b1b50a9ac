// Package testsets defines the evaluation matrix catalogs mirroring the
// paper's Table 1 (39 SPD SuiteSparse matrices) and Table 2 (8 large ones).
// Each catalog entry pairs the paper's matrix name and problem class with a
// deterministic synthetic generator of the same class, scaled down so the
// whole campaign runs on one machine (see DESIGN.md §1 for the substitution
// rationale). Rank counts follow the paper's §5.2 workload rule, scaled to
// the smaller instances.
package testsets

import (
	"fmt"

	"fsaicomm/internal/matgen"
	"fsaicomm/internal/sparse"
)

// Spec is one catalog entry.
type Spec struct {
	ID    int
	Name  string // paper matrix name with a -sim suffix
	Class string // paper "Type" column
	Gen   func() *sparse.CSR
}

// Generate builds the matrix (deterministic).
func (s Spec) Generate() *sparse.CSR { return s.Gen() }

// RanksFor applies the paper's §5.2 rule scaled down: one rank per
// entriesPerRank stored entries, at least minRanks, at most maxRanks.
func RanksFor(nnz int, entriesPerRank, minRanks, maxRanks int) int {
	if entriesPerRank <= 0 {
		panic(fmt.Sprintf("testsets: entriesPerRank %d", entriesPerRank))
	}
	r := nnz / entriesPerRank
	if r < minRanks {
		r = minRanks
	}
	if r > maxRanks {
		r = maxRanks
	}
	return r
}

// DefaultRanks applies the campaign's standard scaling: ~4k entries per
// simulated process, between 2 and 12 ranks (Table 1 set).
func DefaultRanks(nnz int) int { return RanksFor(nnz, 4096, 2, 12) }

// LargeRanks applies the large-set scaling: between 8 and 32 ranks
// (Table 2 set, the paper's up-to-32768-core runs).
func LargeRanks(nnz int) int { return RanksFor(nnz, 4096, 8, 32) }

// Table1 returns the 39-entry catalog mirroring the paper's Table 1. Order,
// names and problem classes match the paper row for row; sizes are scaled
// down ~50–500x.
func Table1() []Spec {
	return []Spec{
		{1, "PFlow_742-sim", "2D/3D Problem", func() *sparse.CSR { return matgen.Poisson3D(14, 14, 14) }},
		{2, "nd24k-sim", "2D/3D Problem", func() *sparse.CSR { return matgen.ModelReduction(1400, 28, 3, 102) }},
		{3, "Fault_639-sim", "Structural Problem", func() *sparse.CSR { return matgen.Elasticity2D(30, 30, 103) }},
		{4, "msdoor-sim", "Structural Problem", func() *sparse.CSR { return matgen.Elasticity2D(28, 28, 104) }},
		{5, "af_shell7-sim", "Subsequent Structural Problem", func() *sparse.CSR { return matgen.Shell2D(44, 44) }},
		{6, "af_shell8-sim", "Subsequent Structural Problem", func() *sparse.CSR { return matgen.Shell2D(44, 45) }},
		{7, "af_shell4-sim", "Subsequent Structural Problem", func() *sparse.CSR { return matgen.Shell2D(45, 44) }},
		{8, "af_shell3-sim", "Subsequent Structural Problem", func() *sparse.CSR { return matgen.Shell2D(45, 45) }},
		{9, "nd12k-sim", "2D/3D Problem", func() *sparse.CSR { return matgen.ModelReduction(1200, 26, 3, 109) }},
		{10, "crankseg_2-sim", "Structural Problem", func() *sparse.CSR { return matgen.ModelReduction(1300, 22, 2, 110) }},
		{11, "bmwcra_1-sim", "Structural Problem", func() *sparse.CSR { return matgen.Elasticity2D(27, 27, 111) }},
		{12, "crankseg_1-sim", "Structural Problem", func() *sparse.CSR { return matgen.ModelReduction(1200, 20, 2, 112) }},
		{13, "hood-sim", "Structural Problem", func() *sparse.CSR { return matgen.Elasticity2D(26, 26, 113) }},
		{14, "thermal2-sim", "Thermal Problem", func() *sparse.CSR { return matgen.ThermalAniso(60, 60, 40, 1) }},
		{15, "G3_circuit-sim", "Circuit Simulation Problem", func() *sparse.CSR { return matgen.CircuitLaplacian(3600, 4, 115) }},
		{16, "nd6k-sim", "2D/3D Problem", func() *sparse.CSR { return matgen.ModelReduction(1000, 24, 3, 116) }},
		{17, "consph-sim", "2D/3D Problem", func() *sparse.CSR { return matgen.ImbalancedMesh(48, 48, 0.25, 10, 117) }},
		{18, "boneS01-sim", "Model Reduction Problem", func() *sparse.CSR { return matgen.ModelReduction(1300, 16, 2, 118) }},
		{19, "tmt_sym-sim", "Electromagnetics Problem", func() *sparse.CSR { return matgen.ThermalAniso(56, 56, 12, 1) }},
		{20, "ecology2-sim", "2D/3D Problem", func() *sparse.CSR { return matgen.Poisson2D(62, 62) }},
		{21, "shipsec5-sim", "Structural Problem", func() *sparse.CSR { return matgen.Elasticity2D(25, 25, 121) }},
		{22, "offshore-sim", "Electromagnetics Problem", func() *sparse.CSR { return matgen.Electromagnetics(2400, 3, 122) }},
		{23, "smt-sim", "Structural Problem", func() *sparse.CSR { return matgen.ModelReduction(900, 24, 3, 123) }},
		{24, "parabolic_fem-sim", "Computational Fluid Dynamics Problem", func() *sparse.CSR { return matgen.CFDDiffusion(56, 56, 100, 124) }},
		{25, "Dubcova3-sim", "2D/3D Problem", func() *sparse.CSR { return matgen.Poisson2D(54, 54) }},
		{26, "shipsec1-sim", "Structural Problem", func() *sparse.CSR { return matgen.Elasticity2D(23, 23, 126) }},
		{27, "nd3k-sim", "2D/3D Problem", func() *sparse.CSR { return matgen.ModelReduction(800, 22, 3, 127) }},
		{28, "cfd2-sim", "Computational Fluid Dynamics Problem", func() *sparse.CSR { return matgen.CFDDiffusion(50, 50, 500, 128) }},
		{29, "nasasrb-sim", "Structural Problem", func() *sparse.CSR { return matgen.Shell2D(38, 38) }},
		{30, "oilpan-sim", "Structural Problem", func() *sparse.CSR { return matgen.Elasticity2D(22, 22, 130) }},
		{31, "cfd1-sim", "Computational Fluid Dynamics Problem", func() *sparse.CSR { return matgen.CFDDiffusion(42, 42, 300, 131) }},
		{32, "qa8fm-sim", "Acoustics Problem", func() *sparse.CSR { return matgen.Acoustics(40, 40, 4) }},
		{33, "2cubes_sphere-sim", "Electromagnetics Problem", func() *sparse.CSR { return matgen.Electromagnetics(1700, 3, 133) }},
		{34, "thermomech_dM-sim", "Thermal Problem", func() *sparse.CSR { return matgen.DiagShift(matgen.ThermalAniso(44, 44, 1.2, 1), 12) }},
		{35, "msc10848-sim", "Structural Problem", func() *sparse.CSR { return matgen.Elasticity2D(20, 20, 135) }},
		{36, "Dubcova2-sim", "2D/3D Problem", func() *sparse.CSR { return matgen.Poisson2D(44, 44) }},
		{37, "gyro_k-sim", "Duplicate Model Reduction Problem", func() *sparse.CSR { return matgen.ModelReduction(700, 18, 1, 137) }},
		{38, "gyro-sim", "Model Reduction Problem", func() *sparse.CSR { return matgen.ModelReduction(700, 18, 1, 138) }},
		{39, "olafu-sim", "Structural Problem", func() *sparse.CSR { return matgen.Elasticity2D(19, 19, 139) }},
	}
}

// Table2 returns the 8-entry large catalog mirroring the paper's Table 2.
// Entry 1 appears twice in the paper (256 and 128 nodes); the driver handles
// the duplicate rank count, so it is listed once here.
func Table2() []Spec {
	return []Spec{
		{1, "Queen_4147-sim", "2D/3D Problem", func() *sparse.CSR { return matgen.Poisson3D(24, 24, 24) }},
		{2, "Bump_2911-sim", "2D/3D Problem", func() *sparse.CSR { return matgen.Poisson3D(22, 22, 22) }},
		{3, "Flan_1565-sim", "Structural Problem", func() *sparse.CSR { return matgen.Elasticity2D(60, 60, 203) }},
		{4, "audikw_1-sim", "Structural Problem", func() *sparse.CSR { return matgen.Elasticity2D(56, 56, 204) }},
		{5, "Geo_1438-sim", "Structural Problem", func() *sparse.CSR { return matgen.Elasticity2D(52, 52, 205) }},
		{6, "Hook_1498-sim", "Structural Problem", func() *sparse.CSR { return matgen.Elasticity2D(48, 48, 206) }},
		{7, "bone010-sim", "Model Reduction Problem", func() *sparse.CSR { return matgen.ModelReduction(5000, 18, 2, 207) }},
		{8, "ldoor-sim", "Structural Problem", func() *sparse.CSR { return matgen.Elasticity2D(44, 44, 208) }},
	}
}

// BenchSpec is the ~50k-row 3-D Poisson instance (37³), the system of the
// 50k benchmarks in bench_test.go.
func BenchSpec() Spec {
	return Spec{
		ID: 900, Name: "bench-poisson-50k", Class: "2D/3D Problem",
		Gen: func() *sparse.CSR { return matgen.Poisson3D(37, 37, 37) },
	}
}

// QuickSet returns a small representative subset of Table 1 used by the
// bench harness's default mode (one matrix per problem class; the full
// campaign runs via cmd/fsaibench).
func QuickSet() []Spec {
	t1 := Table1()
	pick := []int{1, 3, 8, 14, 15, 24, 32} // 3D Poisson, elasticity, shell, thermal, circuit, CFD, acoustics
	out := make([]Spec, 0, len(pick))
	for _, id := range pick {
		out = append(out, t1[id-1])
	}
	return out
}

// Nonsym returns the nonsymmetric catalog driving the SPAI+GMRES axis.
// There is no paper table to mirror here (the paper's campaign is SPD-only);
// the classes cover the two standard nonsymmetric stress shapes: upwind
// convection–diffusion at moderate and solver-breaking Péclet numbers, and
// an unstructured circuit-like operator.
func Nonsym() []Spec {
	return []Spec{
		{1, "convdiff-sim", "Convection Diffusion Problem", func() *sparse.CSR { return matgen.ConvectionDiffusion2D(40, 40, 5) }},
		{2, "convdiff-skew-sim", "Convection Diffusion Problem", func() *sparse.CSR { return matgen.ConvectionDiffusion2D(36, 36, 50) }},
		{3, "nonsym-circuit-sim", "Circuit Simulation Problem", func() *sparse.CSR { return matgen.NonsymCircuit(1400, 5, 301) }},
	}
}

// ByName finds a spec by its catalog name in any table (the SPD Table 1 and
// Table 2 catalogs, then the nonsymmetric set).
func ByName(name string) (Spec, error) {
	for _, table := range [][]Spec{Table1(), Table2(), Nonsym()} {
		for _, s := range table {
			if s.Name == name {
				return s, nil
			}
		}
	}
	return Spec{}, fmt.Errorf("testsets: unknown matrix %q", name)
}
