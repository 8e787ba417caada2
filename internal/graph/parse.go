package graph

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// ParseDirected reads a directed graph from a simple text format: one edge
// per line as "from to capacity", '#' comments and blank lines ignored.
// A line "node v" declares an isolated vertex. Example:
//
//	# Fig. 1(a)
//	1 2 2
//	1 3 1
//	2 3 1
//
// Bidirectional links are written as two lines.
func ParseDirected(text string) (*Directed, error) {
	g := NewDirected()
	sc := bufio.NewScanner(strings.NewReader(text))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == "node" {
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad node id %q: %w", lineNo, fields[1], err)
			}
			g.AddNode(NodeID(v))
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("graph: line %d: want \"from to cap\", got %q", lineNo, line)
		}
		from, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad from %q: %w", lineNo, fields[0], err)
		}
		to, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad to %q: %w", lineNo, fields[1], err)
		}
		c, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad capacity %q: %w", lineNo, fields[2], err)
		}
		if err := g.AddEdge(NodeID(from), NodeID(to), c); err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scan: %w", err)
	}
	return g, nil
}

// Marshal renders g in the ParseDirected text format, deterministically.
func (g *Directed) Marshal() string {
	var sb strings.Builder
	edgeTouched := map[NodeID]bool{}
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "%d %d %d\n", e.From, e.To, e.Cap)
		edgeTouched[e.From] = true
		edgeTouched[e.To] = true
	}
	for _, v := range g.Nodes() {
		if !edgeTouched[v] {
			fmt.Fprintf(&sb, "node %d\n", v)
		}
	}
	return sb.String()
}
