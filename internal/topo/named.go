package topo

import (
	"fmt"
	"os"
	"strings"

	"nab/internal/graph"
)

// builtins is the one table of topology names: every command's -topo flag
// and every chaosfuzz scenario resolve through it.
var builtins = []struct {
	name  string
	build func() (*graph.Directed, error)
}{
	{"k4", func() (*graph.Directed, error) { return CompleteBi(4, 1), nil }},
	{"k5", func() (*graph.Directed, error) { return CompleteBi(5, 2), nil }},
	{"k7", func() (*graph.Directed, error) { return CompleteBi(7, 2), nil }},
	{"fig1", func() (*graph.Directed, error) { return Fig1a(), nil }},
	{"thin5", func() (*graph.Directed, error) { return OneThinLink(5, 4, 5, 8, 1) }},
	{"thin7", func() (*graph.Directed, error) { return OneThinLink(7, 2, 3, 8, 1) }},
	{"circ8", func() (*graph.Directed, error) { return Circulant(8, 1, 1, 2) }},
	{"circ9", func() (*graph.Directed, error) { return Circulant(9, 1, 1, 2) }},
}

// Names lists the built-in topology names, in table order.
func Names() []string {
	out := make([]string, len(builtins))
	for i, b := range builtins {
		out[i] = b.name
	}
	return out
}

// Named builds the built-in topology called name.
func Named(name string) (*graph.Directed, error) {
	for _, b := range builtins {
		if b.name == name {
			return b.build()
		}
	}
	return nil, fmt.Errorf("topo: unknown topology %q (built-in: %s)", name, strings.Join(Names(), ", "))
}

// Load is the -file/-topo pair every command takes: it parses file ("from
// to capacity" per line) when one is given and builds the built-in name
// otherwise.
func Load(file, name string) (*graph.Directed, error) {
	if file == "" {
		return Named(name)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	return graph.ParseDirected(string(data))
}

// MaxFaults returns the largest fault bound f the protocol admits on g:
// n >= 3f+1 and vertex connectivity >= 2f+1.
func MaxFaults(g *graph.Directed) (int, error) {
	conn, err := g.VertexConnectivity()
	if err != nil {
		return 0, err
	}
	return min((g.NumNodes()-1)/3, (conn-1)/2), nil
}
