// Package experiments regenerates every table and figure of the paper's
// evaluation as printable tables: the same rows/series the paper reports,
// produced by this reproduction's stack. cmd/blinkbench and the root
// benchmark suite are thin wrappers over this package.
package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Table is one regenerated figure or table.
type Table struct {
	ID     string // e.g. "fig15"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Metrics exposes headline numbers (geomeans, maxima) for benchmarks.
	Metrics map[string]float64
}

func newTable(id, title string, header ...string) *Table {
	return &Table{ID: id, Title: title, Header: header, Metrics: map[string]float64{}}
}

func (t *Table) addRow(cells ...string) { t.Rows = append(t.Rows, cells) }

func (t *Table) note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	keys := make([]string, 0, len(t.Metrics))
	for k := range t.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  -- %s: %.4g\n", k, t.Metrics[k])
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	fmt.Fprintln(w)
}

// Runner produces one experiment.
type Runner struct {
	ID    string
	Title string
	Run   func() (*Table, error)
}

// All returns every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"fig2", "Broadcast on 3 GPUs, fully vs partially connected (DGX-1P)", Fig2},
		{"fig3", "GPU allocation fragmentation on an 8-GPU-server cluster", Fig3},
		{"fig5", "NCCL communication overhead for 4 DNNs (DGX-1P/V)", Fig5},
		{"fig7", "Reduce+forward throughput over GPU chains", Fig7},
		{"fig8", "MIMO and MCA multi-transfer throughput", Fig8},
		{"fig12", "MIAD automatic chunk size selection", Fig12},
		{"fig14", "Theoretical speedup of tree packing vs rings", Fig14},
		{"fig15", "Broadcast across all 46 unique DGX-1V allocations", Fig15},
		{"fig16", "Broadcast across all 14 unique DGX-1P allocations", Fig16},
		{"fig17", "AllReduce across all 46 unique DGX-1V allocations", Fig17},
		{"fig18", "End-to-end training reduction on a DGX-1V", Fig18},
		{"fig19", "AllReduce throughput vs size on a 16-GPU DGX-2", Fig19},
		{"fig20", "AllReduce latency vs size on a 16-GPU DGX-2", Fig20},
		{"fig21", "Hybrid PCIe+NVLink vs NVLink-only broadcast", Fig21},
		{"fig22a", "Multi-server training throughput (2x DGX-1V)", Fig22a},
		{"fig22b", "Cross-machine AllReduce bandwidth projection", Fig22b},
		{"treemin", "MWU tree count before/after ILP minimization (§3.2.1)", TreeMin},
		{"ablation", "Design-choice ablation (minimization, chunking, streams)", Ablation},
		{"fig24", "Appendix depth tests (forward / reduce+forward / reduce-bcast)", Fig24},
		{"fig26", "Appendix breadth tests (fan-in / fan-out)", Fig26},
	}
}

// ByID finds a runner.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

func gb(bytes int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(bytes) / seconds / 1e9
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
