package collective

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"blink/internal/core"
)

// selectionDoc renders the "Plan selection" table of docs/ARCHITECTURE.md
// from selectShape, i.e. from the same tables the planner uses.
func selectionDoc() string {
	var sb strings.Builder
	sels := []core.FabricSel{core.FabricNVLink, core.FabricPCIe, core.FabricSwitch}
	sb.WriteString("| op |")
	for _, sel := range sels {
		for _, b := range []Backend{Blink, NCCL} {
			fmt.Fprintf(&sb, " %v · %v |", sel, b)
		}
	}
	sb.WriteString("\n|---|---|---|---|---|---|---|\n")
	cell := func(sel core.FabricSel, b Backend, op Op, bytes int64) string {
		kind, strategy, _ := selectShape(sel, b, op, bytes)
		return fmt.Sprintf("`%v` → %s", kind, strategy)
	}
	for op := Broadcast; op <= NeighborExchange; op++ {
		fmt.Fprintf(&sb, "| %v |", op)
		for _, sel := range sels {
			for _, b := range []Backend{Blink, NCCL} {
				fmt.Fprintf(&sb, " %s |", cell(sel, b, op, DBTreeThresholdBytes))
			}
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "\nBelow %d KB, switch · NCCL compiles the reduce-class ops to %s instead.\n",
		DBTreeThresholdBytes>>10, cell(core.FabricSwitch, NCCL, AllReduce, DBTreeThresholdBytes-4))
	return sb.String()
}

// TestArchitectureSelectionTable keeps the documented selection table
// generated, not transcribed: the block between the plan-selection markers
// in docs/ARCHITECTURE.md must equal what the planner's tables render.
func TestArchitectureSelectionTable(t *testing.T) {
	doc, err := os.ReadFile("../../docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- plan-selection:begin -->\n", "<!-- plan-selection:end -->"
	_, rest, ok := strings.Cut(string(doc), begin)
	got, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatal("docs/ARCHITECTURE.md has no plan-selection block")
	}
	if want := selectionDoc(); got != want {
		t.Fatalf("docs/ARCHITECTURE.md plan-selection block is stale; regenerate it as:\n%s", want)
	}
}
