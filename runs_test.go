package fsaicomm

import (
	"testing"

	"fsaicomm/internal/mprun"
)

// TestRefactorSharesRunIndexes: a Refactor'ed system walks the column runs
// of its donor's factors through the donor's run indexes — the index is a
// property of the pattern, built once by Prepare — instead of building its
// own.
func TestRefactorSharesRunIndexes(t *testing.T) {
	p, err := Prepare(plate(40, 40, 1, 1, 0.05), Options{Method: FSAIEComm, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	q, err := p.Refactor(plate(40, 40, 1.3, 0.9, 0.07))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for r := range p.parts {
		for _, ops := range [][2]*mprun.HeldOp{{p.parts[r].G, q.parts[r].G}, {p.parts[r].GT, q.parts[r].GT}} {
			donor, child := ops[0].LZ.Runs(), ops[1].LZ.Runs()
			if donor == nil || child != donor {
				t.Fatalf("rank %d: donor's run index %p, the refactored system's %p", r, donor, child)
			}
		}
	}
}
