package topo

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nab/internal/graph"
)

func TestFig1aPaperNumbers(t *testing.T) {
	g := Fig1a()
	if g.NumNodes() != 4 || g.HasEdge(2, 4) || g.HasEdge(4, 2) {
		t.Fatal("Fig1a shape wrong")
	}
	gamma, err := g.BroadcastMincut(1)
	if err != nil {
		t.Fatal(err)
	}
	if gamma != 2 {
		t.Errorf("gamma = %d, want 2", gamma)
	}
	mc3, err := g.MinCut(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if mc3 != 3 {
		t.Errorf("MINCUT(1,3) = %d, want 3", mc3)
	}
}

func TestFig1bRemovesDispute(t *testing.T) {
	g := Fig1b()
	if g.HasEdge(2, 3) || g.HasEdge(3, 2) {
		t.Error("dispute edges still present")
	}
	if !g.HasEdge(1, 2) {
		t.Error("unrelated edge removed")
	}
}

func TestFig2aSupportsTwoTrees(t *testing.T) {
	g := Fig2a()
	gamma, err := g.BroadcastMincut(1)
	if err != nil {
		t.Fatal(err)
	}
	if gamma != 2 {
		t.Errorf("gamma = %d, want 2", gamma)
	}
	if g.Cap(1, 2) != 2 {
		t.Errorf("cap(1,2) = %d, want 2", g.Cap(1, 2))
	}
}

func TestCompleteBi(t *testing.T) {
	g := CompleteBi(5, 3)
	if g.NumNodes() != 5 || g.NumEdges() != 20 {
		t.Errorf("K5: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.Cap(2, 5) != 3 {
		t.Error("capacity wrong")
	}
	k, err := g.VertexConnectivity()
	if err != nil {
		t.Fatal(err)
	}
	if k != 4 {
		t.Errorf("K5 connectivity = %d, want 4", k)
	}
}

func TestCirculant(t *testing.T) {
	g, err := Circulant(8, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 8 {
		t.Errorf("nodes = %d", g.NumNodes())
	}
	// C8(1,2) is 4-regular in each direction.
	for _, v := range g.Nodes() {
		if len(g.OutEdges(v)) != 4 || len(g.InEdges(v)) != 4 {
			t.Errorf("node %d degree wrong", v)
		}
	}
	k, err := g.VertexConnectivity()
	if err != nil {
		t.Fatal(err)
	}
	if k != 4 {
		t.Errorf("C8(1,2) connectivity = %d, want 4", k)
	}
	// Validation.
	if _, err := Circulant(2, 1, 1); err == nil {
		t.Error("n=2: expected error")
	}
	if _, err := Circulant(8, 1); err == nil {
		t.Error("no offsets: expected error")
	}
	if _, err := Circulant(8, 1, 4); err == nil {
		t.Error("offset n/2: expected error")
	}
}

func TestRandomConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		g, err := RandomConnected(rng, 7, 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		k, err := g.VertexConnectivity()
		if err != nil {
			t.Fatal(err)
		}
		if k < 3 {
			t.Errorf("trial %d: connectivity %d < 3", trial, k)
		}
		for _, e := range g.Edges() {
			if e.Cap < 1 || e.Cap > 4 {
				t.Errorf("capacity %d out of range", e.Cap)
			}
		}
	}
	if _, err := RandomConnected(rng, 4, 0, 1); err == nil {
		t.Error("minConn=0: expected error")
	}
	if _, err := RandomConnected(rng, 4, 4, 1); err == nil {
		t.Error("minConn >= n: expected error")
	}
	if _, err := RandomConnected(rng, 4, 3, 1); err == nil {
		t.Error("n too small for connectivity: expected error")
	}
}

func TestHeterogeneous(t *testing.T) {
	g, err := Heterogeneous(5, 3, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cap(1, 2) != 8 || g.Cap(1, 4) != 1 || g.Cap(4, 5) != 1 {
		t.Error("capacity assignment wrong")
	}
	if _, err := Heterogeneous(5, 6, 8, 1); err == nil {
		t.Error("fatNodes > n: expected error")
	}
	if _, err := Heterogeneous(5, 3, 1, 8); err == nil {
		t.Error("fat < thin: expected error")
	}
}

func TestOneThinLink(t *testing.T) {
	g, err := OneThinLink(5, 4, 5, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cap(4, 5) != 1 || g.Cap(5, 4) != 1 {
		t.Error("thin link wrong")
	}
	if g.Cap(1, 2) != 16 || g.Cap(1, 4) != 16 {
		t.Error("fat links wrong")
	}
	// Broadcast mincut grows with fat capacity despite the thin link.
	gamma, err := g.BroadcastMincut(1)
	if err != nil {
		t.Fatal(err)
	}
	if gamma != 3*16+1 {
		t.Errorf("gamma = %d, want 49", gamma)
	}
	if _, err := OneThinLink(5, 4, 4, 16, 1); err == nil {
		t.Error("same endpoints: expected error")
	}
	if _, err := OneThinLink(5, 4, 5, 1, 16); err == nil {
		t.Error("fat < thin: expected error")
	}
	if _, err := OneThinLink(5, 8, 9, 16, 1); err == nil {
		t.Error("thin pair outside graph: expected error")
	}
}

func TestGraphsHaveNodeOne(t *testing.T) {
	// Every generator numbers nodes from 1 (the paper's source).
	graphs := []*graph.Directed{Fig1a(), Fig1b(), Fig2a(), CompleteBi(4, 1)}
	circ, err := Circulant(6, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, circ)
	for i, g := range graphs {
		if !g.HasNode(1) {
			t.Errorf("graph %d lacks node 1", i)
		}
	}
}

// TestNamedTable pins the one topology-name table: every name builds,
// names are unique, each admits the fault bound it is used with, an
// unknown name's error lists the valid ones, and every topology a
// checked-in chaosfuzz fixture names resolves.
func TestNamedTable(t *testing.T) {
	wantF := map[string]int{"k4": 1, "k5": 1, "k7": 2, "fig1": 0, "thin5": 1, "thin7": 2, "circ8": 1, "circ9": 1}
	seen := map[string]bool{}
	for _, name := range Names() {
		if seen[name] {
			t.Errorf("duplicate name %q", name)
		}
		seen[name] = true
		g, err := Named(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !g.HasNode(1) {
			t.Errorf("%s lacks source node 1", name)
		}
		f, err := MaxFaults(g)
		if err != nil {
			t.Fatal(err)
		}
		if want, ok := wantF[name]; !ok || f != want {
			t.Errorf("MaxFaults(%s) = %d, want %d", name, f, want)
		}
	}
	if len(seen) != len(wantF) {
		t.Errorf("table has %d names, want %d", len(seen), len(wantF))
	}

	_, err := Named("nope")
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %s", err, name)
		}
	}

	fixtures, err := filepath.Glob("../../tools/chaosfuzz/fixtures/*.json")
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no chaosfuzz fixtures found: %v", err)
	}
	for _, path := range fixtures {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var sc struct{ Topology string }
		if err := json.Unmarshal(raw, &sc); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if _, err := Named(sc.Topology); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

func TestLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "net.txt")
	if err := os.WriteFile(path, []byte(CompleteBi(4, 1).Marshal()), 0o600); err != nil {
		t.Fatal(err)
	}
	g, err := Load(path, "ignored")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 12 {
		t.Errorf("loaded %d edges, want 12", g.NumEdges())
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing"), "k4"); err == nil {
		t.Error("missing file accepted")
	}
}
