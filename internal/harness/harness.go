// Package harness defines the reproduction experiments: every quantitative
// claim of the paper (Theorems 4.1, 5.1, 5.2, 6.1, Lemma 4.2, Lemma 6.6 and
// the §4 strawman comparison) maps to a named experiment that sweeps a
// workload, measures the claimed quantity, and renders a table.
// EXPERIMENTS.md records paper-vs-measured for each one;
// cmd/renamebench regenerates them.
package harness

import (
	"fmt"
	"io"
	"strings"
)

// Table is one rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper claim being checked
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row; values are rendered with %v.
func (t *Table) AddRow(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = trimFloat(x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a free-text note rendered under the table.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the table as comma-separated values (no notes).
func (t *Table) CSV(w io.Writer) error {
	rows := append([][]string{t.Columns}, t.Rows...)
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			cell = strings.ReplaceAll(cell, ",", ";")
			if _, err := io.WriteString(w, cell); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// trimFloat renders floats compactly (3 decimals, trailing zeros trimmed).
func trimFloat(x float64) string {
	s := fmt.Sprintf("%.3f", x)
	s = strings.TrimRight(s, "0")
	s = strings.TrimSuffix(s, ".")
	if s == "-0" {
		s = "0"
	}
	return s
}

// RunConfig tunes an experiment run.
type RunConfig struct {
	// Seed drives all randomness; a fixed seed reproduces the
	// simulator-backed tables exactly (F4, F6 and F7 race real goroutines).
	Seed uint64
	// Quick shrinks sweeps and repetition counts for smoke runs.
	Quick bool
}

// Experiment is one registered reproduction experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg RunConfig) (*Table, error)
}

// Experiments returns the full registry in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "T1", Title: "ReBatching individual step complexity (Thm 4.1)", Run: runT1},
		{ID: "T2", Title: "ReBatching total step complexity (Thm 4.1)", Run: runT2},
		{ID: "T3", Title: "Survivors per batch vs Lemma 4.2 bound", Run: runT3},
		{ID: "T4", Title: "Backup-phase frequency (Lemma 4.2 tail)", Run: runT4},
		{ID: "T5", Title: "AdaptiveReBatching steps and names (Thm 5.1)", Run: runT5},
		{ID: "T6", Title: "FastAdaptiveReBatching total work (Thm 5.2)", Run: runT6},
		{ID: "T7", Title: "Lower-bound marking gadget (Thm 6.1, Lemma 6.6)", Run: runT7},
		{ID: "F1", Title: "Algorithm comparison: max steps vs n", Run: runF1},
		{ID: "F2", Title: "Namespace/time trade-off (epsilon sweep)", Run: runF2},
		{ID: "F3", Title: "Adversary ablation", Run: runF3},
		{ID: "F4", Title: "Real-concurrency probe profile (goroutines)", Run: runF4},
		{ID: "F5", Title: "Crash-failure tolerance", Run: runF5},
		{ID: "F6", Title: "Deterministic (Moir-Anderson) vs randomized adaptive", Run: runF6},
		{ID: "F7", Title: "Long-lived churn: LevelArray vs one-shot namers", Run: runF7},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
