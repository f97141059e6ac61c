package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSearchParamsValidate pins the flag-domain checks behind the search
// subcommand: out-of-range counts and non-finite or negative weights must
// produce a usageError (exit 2 with usage), and sensible values must pass.
func TestSearchParamsValidate(t *testing.T) {
	good := searchParams{beam: 3, waves: 3, budget: 64, branch: 4, wTime: 1, wArea: 1}
	if err := good.validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	zeroWaves := good
	zeroWaves.waves = 0
	if err := zeroWaves.validate(); err != nil {
		t.Errorf("waves=0 (seeds-only) rejected: %v", err)
	}
	timeOnly := good
	timeOnly.wArea = 0
	if err := timeOnly.validate(); err != nil {
		t.Errorf("single-axis weights rejected: %v", err)
	}
	bad := []searchParams{
		{beam: 0, waves: 3, budget: 64, branch: 4, wTime: 1, wArea: 1},
		{beam: 3, waves: -1, budget: 64, branch: 4, wTime: 1, wArea: 1},
		{beam: 3, waves: 3, budget: 0, branch: 4, wTime: 1, wArea: 1},
		{beam: 3, waves: 3, budget: 64, branch: 0, wTime: 1, wArea: 1},
		{beam: 3, waves: 3, budget: 64, branch: 4, wTime: -1, wArea: 1},
		{beam: 3, waves: 3, budget: 64, branch: 4, wTime: math.NaN(), wArea: 1},
		{beam: 3, waves: 3, budget: 64, branch: 4, wTime: math.Inf(1), wArea: 1},
		{beam: 3, waves: 3, budget: 64, branch: 4, wTime: 0, wArea: 0},
	}
	for i, p := range bad {
		err := p.validate()
		if err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
			continue
		}
		var ue usageError
		if !errors.As(err, &ue) {
			t.Errorf("case %d: error is not a usageError: %v", i, err)
		}
	}
}

// TestCPUProfileFlag builds the CLI and runs synthdoc gcd with and
// without -cpuprofile: the flag must write a non-empty profile and leave
// stdout byte-identical.
func TestCPUProfileFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	dir := t.TempDir()
	cli := filepath.Join(dir, "asyncsynth")
	if out, err := exec.Command("go", "build", "-o", cli, "repro/cmd/asyncsynth").CombinedOutput(); err != nil {
		t.Fatalf("building asyncsynth: %v\n%s", err, out)
	}
	want, err := exec.Command(cli, "-j", "1", "synthdoc", "gcd").Output()
	if err != nil {
		t.Fatalf("synthdoc: %v", err)
	}
	prof := filepath.Join(dir, "cpu.pprof")
	got, err := exec.Command(cli, "-j", "1", "-cpuprofile", prof, "synthdoc", "gcd").Output()
	if err != nil {
		t.Fatalf("synthdoc -cpuprofile: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("-cpuprofile changed the command's stdout")
	}
	if st, err := os.Stat(prof); err != nil {
		t.Errorf("-cpuprofile: %v", err)
	} else if st.Size() == 0 {
		t.Error("-cpuprofile wrote an empty profile")
	}
}
