package topology

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"blink/internal/graph"
)

// MaxParseGPUs bounds the device count a parsed spec may declare. No real
// single-machine fabric approaches it, and the bound keeps a hostile or
// corrupted spec ("0-999999999") from allocating gigabytes of graph before
// validation can reject it.
const MaxParseGPUs = 1024

// Parse builds a custom topology from a compact textual description, so
// users can model fabrics beyond the built-in DGX machines:
//
//	"v100; 0-1:2, 1-2:1, 0-2:1"
//
// The first field selects the link generation ("p100" or "v100"); the rest
// are undirected NVLink connections "a-b:links" (":links" defaults to 1).
// GPU count is inferred from the highest endpoint. The standard PCIe hub
// is attached automatically.
func Parse(spec string) (*Topology, error) {
	parts := strings.SplitN(spec, ";", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("topology: spec needs \"<gen>; <edges>\", got %q", spec)
	}
	var gen Gen
	switch strings.ToLower(strings.TrimSpace(parts[0])) {
	case "p100":
		gen = GenP100
	case "v100":
		gen = GenV100
	default:
		return nil, fmt.Errorf("topology: unknown generation %q", parts[0])
	}

	type edge struct {
		a, b  int
		links float64
	}
	var edges []edge
	maxV := -1
	for _, tok := range strings.Split(parts[1], ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		linkStr := "1"
		if i := strings.IndexByte(tok, ':'); i >= 0 {
			linkStr = strings.TrimSpace(tok[i+1:])
			tok = strings.TrimSpace(tok[:i])
		}
		ends := strings.SplitN(tok, "-", 2)
		if len(ends) != 2 {
			return nil, fmt.Errorf("topology: bad edge %q (want a-b or a-b:n)", tok)
		}
		a, err := strconv.Atoi(strings.TrimSpace(ends[0]))
		if err != nil {
			return nil, fmt.Errorf("topology: bad endpoint in %q: %w", tok, err)
		}
		b, err := strconv.Atoi(strings.TrimSpace(ends[1]))
		if err != nil {
			return nil, fmt.Errorf("topology: bad endpoint in %q: %w", tok, err)
		}
		links, err := strconv.ParseFloat(linkStr, 64)
		// NaN fails every comparison and +Inf passes "> 0", so test for
		// finiteness explicitly: either would poison downstream bandwidth
		// math (NaN capacities make tree packing loop on unordered weights).
		if err != nil || links <= 0 || math.IsNaN(links) || math.IsInf(links, 0) {
			return nil, fmt.Errorf("topology: bad link count %q", linkStr)
		}
		if a == b || a < 0 || b < 0 {
			return nil, fmt.Errorf("topology: bad edge %d-%d", a, b)
		}
		if a >= MaxParseGPUs || b >= MaxParseGPUs {
			return nil, fmt.Errorf("topology: endpoint %d exceeds the %d-GPU limit", max(a, b), MaxParseGPUs)
		}
		edges = append(edges, edge{a, b, links})
		maxV = max(maxV, a)
		maxV = max(maxV, b)
	}
	if len(edges) == 0 {
		return nil, fmt.Errorf("topology: no edges in spec")
	}
	// Fold duplicate connection tokens ("0-1, 0-1" or "0-1, 1-0") into one
	// connection with the summed link count. One edge pair per connected
	// device pair is what keeps derived topologies' degrade-then-restore
	// (WithLinkUnits) fingerprint-stable. Edges are built in sorted (a, b)
	// order — the order Spec() renders — so the Fingerprint (which hashes
	// edges positionally) is a function of the described fabric, not of
	// the spelling: "0-1, 1-2" and "1-2, 0-1" parse to one identity, and
	// Parse(Spec(t)) always reproduces t's fingerprint.
	type pair struct{ a, b int }
	caps := map[pair]float64{}
	var order []pair
	for _, e := range edges {
		k := pair{e.a, e.b}
		if k.a > k.b {
			k.a, k.b = k.b, k.a
		}
		if _, seen := caps[k]; !seen {
			order = append(order, k)
		}
		caps[k] += e.links
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].a != order[j].a {
			return order[i].a < order[j].a
		}
		return order[i].b < order[j].b
	})
	// Re-validate after folding: every token can be finite yet their sum
	// overflow to +Inf ("0-1:1e308, 0-1:1e308").
	for _, k := range order {
		if math.IsInf(caps[k], 0) {
			return nil, fmt.Errorf("topology: summed link count of %d-%d overflows", k.a, k.b)
		}
	}
	n := maxV + 1
	g := graph.New(n)
	for _, k := range order {
		g.AddBiEdge(k.a, k.b, caps[k], graph.NVLink)
	}
	t := &Topology{
		Name:    fmt.Sprintf("custom-%d", n),
		Kind:    KindCustom,
		Gen:     gen,
		NumGPUs: n,
		G:       g,
		P:       pcieHub(n, gen),
		DevIDs:  identityIDs(n),
	}
	return t, nil
}

// Spec renders a topology back into the Parse format (NVLink plane only).
func (t *Topology) Spec() string {
	type key struct{ a, b int }
	caps := map[key]float64{}
	for _, e := range t.G.Edges {
		a, b := e.From, e.To
		if a > b {
			a, b = b, a
		}
		if e.Type == graph.NVLink && e.From < e.To {
			caps[key{a, b}] += e.Cap
		}
	}
	keys := make([]key, 0, len(caps))
	for k := range caps {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})
	var b strings.Builder
	b.WriteString(strings.ToLower(t.Gen.String()))
	b.WriteString("; ")
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d-%d:%g", k.a, k.b, caps[k])
	}
	return b.String()
}

// DOT renders the NVLink plane as Graphviz DOT, labeling multi-link edges.
func (t *Topology) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %q {\n", t.Name)
	b.WriteString("  layout=circo;\n  node [shape=box, style=rounded];\n")
	for v := 0; v < t.NumGPUs; v++ {
		fmt.Fprintf(&b, "  g%d [label=\"GPU%d\"];\n", v, t.DevIDLabel(v))
	}
	for v := t.NumGPUs; v < t.G.N; v++ {
		fmt.Fprintf(&b, "  g%d [label=\"switch\", shape=diamond];\n", v)
	}
	for _, e := range t.G.Edges {
		if e.From < e.To {
			attr := ""
			if e.Cap > 1 {
				attr = fmt.Sprintf(" [label=\"x%g\", penwidth=%g]", e.Cap, e.Cap)
			}
			fmt.Fprintf(&b, "  g%d -- g%d%s;\n", e.From, e.To, attr)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// DevIDLabel returns the physical device ID for a vertex (vertex index
// when no mapping exists).
func (t *Topology) DevIDLabel(v int) int {
	if v < len(t.DevIDs) {
		return t.DevIDs[v]
	}
	return v
}
