package main

import (
	"os"
	"path/filepath"
	"testing"

	"nab/internal/topo"
)

func TestRunSingleExperiments(t *testing.T) {
	// The fast experiments run under test; the heavy ones are covered by
	// internal/exp tests and the bench harness.
	for _, name := range []string{"e1", "e2"} {
		if err := run([]string{"-only", name}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRunE3SmallDraws(t *testing.T) {
	if err := run([]string{"-only", "e3", "-draws", "30"}); err != nil {
		t.Error(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-only", "e99"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestSimCleanAndAdversarial(t *testing.T) {
	if err := run([]string{"sim", "-topo", "k4", "-q", "2", "-len", "8"}); err != nil {
		t.Errorf("clean: %v", err)
	}
	if err := run([]string{"sim", "-topo", "k5", "-q", "2", "-len", "8", "-adversary", "4=flip"}); err != nil {
		t.Errorf("adversarial: %v", err)
	}
	if err := run([]string{"sim", "-topo", "k7", "-f", "2", "-q", "2", "-len", "8",
		"-adversary", "3=random:7", "-adversary", "5=suppress"}); err != nil {
		t.Errorf("seeded random + suppress: %v", err)
	}
}

func TestSimErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-topo", "nope"},
		{"-topo", "k4", "-f", "2"},
		{"-file", "/does/not/exist"},
		{"-adversary", "3=unknown"},
	} {
		if err := run(append([]string{"sim"}, args...)); err == nil {
			t.Errorf("sim %v accepted", args)
		}
	}
}

func TestCapBuiltins(t *testing.T) {
	// Every name of the shared table but k7 (TestCapK7F2), exact where the
	// enumeration is cheap.
	for _, name := range topo.Names() {
		args := []string{"cap", "-topo", name}
		switch name {
		case "k7":
			continue
		case "k4", "k5", "fig1":
		default:
			args = append(args, "-exact=false")
		}
		if name == "thin7" {
			args = append(args, "-f", "2")
		}
		if err := run(args); err != nil {
			t.Errorf("topo %s: %v", name, err)
		}
	}
}

func TestCapK7F2(t *testing.T) {
	if err := run([]string{"cap", "-topo", "k7", "-f", "2", "-exact=false"}); err != nil {
		t.Error(err)
	}
}

func TestCapErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-topo", "nope"},
		{"-file", "/does/not/exist"},
		{"-topo", "k4", "-source", "99"},
	} {
		if err := run(append([]string{"cap"}, args...)); err == nil {
			t.Errorf("cap %v accepted", args)
		}
	}
}

func TestCapFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "net.txt")
	if err := os.WriteFile(path, []byte(topo.CompleteBi(4, 1).Marshal()), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"cap", "-file", path}); err != nil {
		t.Error(err)
	}
}
