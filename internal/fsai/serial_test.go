package fsai

import "fsaicomm/internal/sparse"

// PowerPatternWorkers returns the level-N pattern: lower triangle of
// pattern(Ã^N) where Ã drops entries below tau (scale-independent), powered
// symbolically by workers workers (<= 0 selects GOMAXPROCS). Level 1 with
// tau 0 reduces to LowerPattern. It is the one-process reference
// PowerPatternDist is held to.
func PowerPatternWorkers(a *sparse.CSR, level int, tau float64, workers int) *sparse.Pattern {
	at := a
	if tau > 0 {
		at = sparse.Threshold(a, tau)
	}
	return sparse.PatternPowerWorkers(at, level, workers).LowerTriangle().WithDiagonal()
}
