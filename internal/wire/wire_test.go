package wire

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"testing"
	"time"

	renaming "repro"
	"repro/lease"
)

// TestCodeRoundTrip pins the code table — every byte, JSON string, HTTP
// status and sentinel is wire contract — and the trip through it: a
// server error, wrapped as the server wraps it, classifies to its code,
// and the code rebuilds an error that errors.Is-matches the sentinel.
func TestCodeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		b      byte
		name   string
		status int
		errs   []error // classify as this code; the client rebuilds errs[0]
	}{
		{0, "", http.StatusOK, nil},
		{1, CodeUnknownName, 500, []error{lease.ErrUnknownName}},
		{2, CodeWrongToken, 500, []error{lease.ErrWrongToken}},
		{3, CodeExpired, 500, []error{lease.ErrExpired}},
		{4, CodeClosed, 503, []error{lease.ErrClosed}},
		{5, CodeCancelled, 408, []error{renaming.ErrCancelled}},
		{6, CodeInternal, 500, []error{ErrServer, errors.New("namer exploded")}},
		{7, CodeExhausted, 503, []error{lease.ErrCapacity, renaming.ErrNamespaceExhausted}},
		{8, CodeBadRequest, 400, []error{renaming.ErrBadConfig}},
	} {
		c := Code(tc.b)
		if c.String() != tc.name || ParseCode(tc.name) != c || c.Status() != tc.status || c.PerItem() != (tc.b < 7) {
			t.Errorf("code %d = (%q, %d, per-item %v), want (%q, %d)", tc.b, c, c.Status(), c.PerItem(), tc.name, tc.status)
		}
		if tc.errs == nil {
			if CodeOf(nil) != c || c.Err("msg") != nil {
				t.Errorf("success: CodeOf(nil) = %d, Err = %v", CodeOf(nil), c.Err("msg"))
			}
			continue
		}
		for _, err := range tc.errs {
			if got := CodeOf(fmt.Errorf("lease: renew batch: %w", err)); got != c {
				t.Errorf("CodeOf(%v) = %d, want %d", err, got, c)
			}
		}
		if back := c.Err("server said so"); !errors.Is(back, tc.errs[0]) {
			t.Errorf("code %d rebuilds %v, does not match %v", tc.b, back, tc.errs[0])
		}
	}
	// A code this side does not know reads as internal, on either wire,
	// and the server's message survives.
	if ParseCode("from_a_newer_server") != Code(6) || Code(200).String() != CodeInternal {
		t.Fatal("an unknown code does not read as internal")
	}
	if got := Code(6).Err("namer exploded"); got.Error() != "renamed: server error (server: namer exploded)" {
		t.Fatalf("internal rebuilds %v", got)
	}
}

// TestTTLFromMs: the overflow guard must saturate, not wrap negative
// (which the manager would read as "use the default TTL").
func TestTTLFromMs(t *testing.T) {
	if got := TTLFromMs(0); got != 0 {
		t.Fatalf("TTLFromMs(0) = %v, want 0", got)
	}
	if got := TTLFromMs(-5); got != 0 {
		t.Fatalf("TTLFromMs(-5) = %v, want 0", got)
	}
	if got := TTLFromMs(1500); got != 1500*time.Millisecond {
		t.Fatalf("TTLFromMs(1500) = %v", got)
	}
	if got := TTLFromMs(math.MaxInt64); got != time.Duration(math.MaxInt64) {
		t.Fatalf("TTLFromMs(max) = %v, want saturation", got)
	}
	if got := TTLFromMs(math.MaxInt64/int64(time.Millisecond) + 1); got <= 0 {
		t.Fatalf("TTLFromMs(overflow boundary) = %v, wrapped negative", got)
	}
}
