package harness

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:      "X",
		Title:   "demo",
		Claim:   "c",
		Columns: []string{"a", "bb"},
	}
	tab.AddRow(1, 2.5)
	tab.AddRow("long-cell", 0.125)
	tab.AddNote("note %d", 7)
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== X: demo ==", "claim: c", "long-cell", "2.5", "0.125", "note: note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Columns: []string{"a", "b"}}
	tab.AddRow("x,y", 3)
	var buf bytes.Buffer
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "a,b\nx;y,3\n"; got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestTrimFloat(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{1.5, "1.5"}, {2, "2"}, {0.125, "0.125"}, {-0.0001, "0"}, {3.14159, "3.142"},
	}
	for _, tt := range tests {
		if got := trimFloat(tt.in); got != tt.want {
			t.Errorf("trimFloat(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("T1"); !ok {
		t.Error("T1 not registered")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id found")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"T1", "T2", "T3", "T4", "T5", "T6", "T7", "F1", "F2", "F3", "F4", "F5", "F6", "F7"}
	exps := Experiments()
	if len(exps) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(exps), len(want))
	}
	for i, id := range want {
		if exps[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, exps[i].ID, id)
		}
	}
}

// TestAllExperimentsQuick runs the entire registry in quick mode: every
// experiment must complete without error and produce a non-empty table.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep still takes tens of seconds")
	}
	for _, exp := range Experiments() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			t.Parallel()
			tab, err := exp.Run(RunConfig{Seed: 1, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("no rows produced")
			}
			var buf bytes.Buffer
			if err := tab.Render(&buf); err != nil {
				t.Fatal(err)
			}
			if err := tab.CSV(&buf); err != nil {
				t.Fatal(err)
			}
		})
	}
}
