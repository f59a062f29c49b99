package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry with fully deterministic contents:
// every metric kind, labeled and unlabeled, with fixed values.
func goldenRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("example_requests_total", "Requests served.")
	c.Add(1234)
	v := r.CounterVec("example_verdicts_total", "Per-item verdict codes.", "op", "code")
	v.With("renew", "ok").Add(100)
	v.With("renew", "expired").Add(3)
	v.With("release", "ok").Add(40)
	r.GaugeFunc("example_live", "Live leases.", func() float64 { return 17 })
	r.CounterFunc("example_fsyncs_total", "Journal fsyncs.", func() int64 { return 55 })
	h := r.Histogram("example_op_duration_seconds", "Operation latency.")
	h.Observe(500 * time.Nanosecond) // below the first bound: folds into it
	h.Observe(3 * time.Microsecond)
	h.Observe(900 * time.Microsecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(150 * time.Millisecond)
	h.Observe(90 * time.Second) // above the last bound: only in +Inf
	hv := r.HistogramVec("example_rt_seconds", "Round-trip latency.", "op")
	hv.With("renew_batch").Observe(1 * time.Millisecond)
	hv.With("renew_batch").Observe(4 * time.Millisecond)
	hv.With("acquire").Observe(10 * time.Millisecond)
	return r
}

// TestWritePrometheusGolden locks the exposition format byte-for-byte:
// family ordering, HELP/TYPE rendering, label rendering, cumulative
// bucket bounds and value formatting. Regenerate with -update after a
// deliberate format change.
func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestGoldenExpositionLintClean: the locked format must also be what
// Lint (and promlint) accepts.
func TestGoldenExpositionLintClean(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if problems := Lint(buf.Bytes()); len(problems) != 0 {
		t.Fatalf("lint problems in golden exposition: %v", problems)
	}
}

// TestHistogramBucketsCumulative reads the rendered buckets back and
// checks Prometheus bucket semantics directly: non-decreasing,
// trailing +Inf equal to _count, _sum in seconds.
func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.")
	h.Observe(time.Microsecond)
	h.Observe(time.Millisecond)
	h.Observe(time.Second)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `lat_seconds_bucket{le="+Inf"} 3`) {
		t.Fatalf("missing +Inf bucket with full count:\n%s", out)
	}
	if !strings.Contains(out, "lat_seconds_count 3") {
		t.Fatalf("missing _count:\n%s", out)
	}
	if !strings.Contains(out, "lat_seconds_sum 1.001001") {
		t.Fatalf("missing _sum in seconds:\n%s", out)
	}
	if problems := Lint(buf.Bytes()); len(problems) != 0 {
		t.Fatalf("lint problems: %v", problems)
	}
}

// TestLintCatchesProblems feeds Lint hand-broken expositions; a linter
// that passes everything would let the golden test rot silently.
func TestLintCatchesProblems(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring of some problem
	}{
		{
			"sample without TYPE",
			"orphan 1\n",
			"without a preceding TYPE",
		},
		{
			"counter without _total",
			"# HELP c Requests.\n# TYPE c counter\nc 1\n",
			"does not end in _total",
		},
		{
			"gauge with _total",
			"# HELP g_total G.\n# TYPE g_total gauge\ng_total 1\n",
			"ends in _total",
		},
		{
			"missing HELP",
			"# TYPE c_total counter\nc_total 1\n",
			"without a preceding HELP",
		},
		{
			"non-cumulative buckets",
			"# HELP h_seconds H.\n# TYPE h_seconds histogram\n" +
				`h_seconds_bucket{le="0.1"} 5` + "\n" +
				`h_seconds_bucket{le="1"} 3` + "\n" +
				`h_seconds_bucket{le="+Inf"} 5` + "\n" +
				"h_seconds_sum 1\nh_seconds_count 5\n",
			"not cumulative",
		},
		{
			"missing +Inf",
			"# HELP h_seconds H.\n# TYPE h_seconds histogram\n" +
				`h_seconds_bucket{le="1"} 3` + "\n" +
				"h_seconds_sum 1\nh_seconds_count 3\n",
			`no le="+Inf"`,
		},
		{
			"count disagrees with +Inf",
			"# HELP h_seconds H.\n# TYPE h_seconds histogram\n" +
				`h_seconds_bucket{le="+Inf"} 3` + "\n" +
				"h_seconds_sum 1\nh_seconds_count 4\n",
			"+Inf bucket",
		},
		{
			"duplicate series",
			"# HELP g G.\n# TYPE g gauge\ng 1\ng 2\n",
			"duplicate series",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			problems := Lint([]byte(tc.in))
			for _, p := range problems {
				if strings.Contains(p, tc.want) {
					return
				}
			}
			t.Fatalf("Lint missed %q; got %v", tc.want, problems)
		})
	}
}
