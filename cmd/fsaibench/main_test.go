package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSingleExperiments(t *testing.T) {
	for _, exp := range []string{"imbalance", "fig3a"} {
		var buf bytes.Buffer
		if err := run(exp, "quick", "", 0, "classic", &buf); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if !strings.Contains(buf.String(), "completed") {
			t.Fatalf("%s: output incomplete", exp)
		}
	}
}

func TestRunArchOverride(t *testing.T) {
	var buf bytes.Buffer
	if err := run("fig3a", "quick", "a64fx", 2, "classic", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "a64fx") {
		t.Fatal("arch override ignored")
	}
}

func TestRunCommHidingVariants(t *testing.T) {
	for _, cg := range []string{"fused", "pipelined"} {
		var buf bytes.Buffer
		if err := run("imbalance", "quick", "", 0, cg, &buf); err != nil {
			t.Fatalf("-cg %s: %v", cg, err)
		}
		if !strings.Contains(buf.String(), "completed") {
			t.Fatalf("-cg %s: output incomplete", cg)
		}
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	var buf bytes.Buffer
	if err := run("nope", "quick", "", 0, "classic", &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run("table1", "huge", "", 0, "classic", &buf); err == nil {
		t.Fatal("unknown set accepted")
	}
	if err := run("table1", "quick", "", 0, "bogus", &buf); err == nil {
		t.Fatal("unknown CG variant accepted")
	}
	// An unknown profile must fail before any experiment runs, not fall
	// back to the experiment's default architecture.
	if err := run("imbalance", "quick", "bogus", 0, "classic", &buf); err == nil {
		t.Fatal("unknown architecture accepted")
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected runs wrote output:\n%s", buf.String())
	}
}
