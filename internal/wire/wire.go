// Package wire is the JSON wire contract of cmd/renamed's /v1 HTTP API,
// shared by the server's handlers and the leaseclient session layer so
// the two cannot drift. Durations travel as integer milliseconds and
// instants as Unix milliseconds — clients need no time-format parsing.
//
// Batch renew/release responses are PER-ITEM: the request was processed
// even when individual items failed, and each failed item carries both a
// human-readable error and a machine-readable code. A heartbeating
// session uses the codes to learn exactly which leases it lost and why.
// A request refused as a whole carries a code too, in its error body.
//
// Every code lives in one table (codes, below): its byte on bin://, its
// JSON string, the sentinel a client rebuilds from it, and the HTTP
// status it refuses a whole request with. Servers classify with CodeOf,
// clients rebuild with Code.Err, so a refusal unwraps to the same
// sentinel over either wire.
package wire

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"time"

	renaming "repro"
	"repro/lease"
)

// HeaderRequestID is the request-tracing header. A client stamps every
// request with a fresh opaque ID; the server echoes it on the response
// and attaches it to its slow-operation log lines, so one slow heartbeat
// in a client's log joins against the server-side record of the same
// request without any clock alignment.
const HeaderRequestID = "X-Request-Id"

// NewRequestID returns a fresh 16-hex-digit request ID. IDs are random,
// not sequential — two clients (or two sessions in one process) never
// need coordination — and non-cryptographic: they correlate log lines,
// they do not authenticate anything.
func NewRequestID() string {
	return fmt.Sprintf("%016x", rand.Uint64())
}

// AcquireBatchRequest is the body of POST /v1/acquire_batch.
type AcquireBatchRequest struct {
	Owner string            `json:"owner"`
	Count int               `json:"count"`
	TTLms int64             `json:"ttl_ms,omitempty"`
	Meta  map[string]string `json:"meta,omitempty"`
}

// Item identifies one lease inside a batch renew/release request.
type Item struct {
	Name  int    `json:"name"`
	Token uint64 `json:"token"`
}

// RenewBatchRequest is the body of POST /v1/renew_batch: one TTL applied
// to every item, the etcd-style heartbeat shape.
type RenewBatchRequest struct {
	TTLms int64  `json:"ttl_ms,omitempty"`
	Items []Item `json:"items"`
}

// ReleaseBatchRequest is the body of POST /v1/release_batch.
type ReleaseBatchRequest struct {
	Items []Item `json:"items"`
}

// Lease is the wire form of one lease.
type Lease struct {
	Name        int               `json:"name"`
	Token       uint64            `json:"token,omitempty"`
	Owner       string            `json:"owner,omitempty"`
	ExpiresAtMs int64             `json:"expires_at_ms"`
	Meta        map[string]string `json:"meta,omitempty"`
}

// Leases is the body of acquire_batch and /v1/leases responses.
type Leases struct {
	Leases []Lease `json:"leases"`
}

// BatchResult is one item's outcome in a renew_batch/release_batch
// response, index-aligned with the request's items. Exactly one of Lease
// (renew success) or Error+Code is populated; a release success is all
// zero values.
type BatchResult struct {
	Lease *Lease `json:"lease,omitempty"`
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
}

// BatchResults is the body of renew_batch/release_batch responses.
type BatchResults struct {
	Results []BatchResult `json:"results"`
}

// ResizeRequest is the body of POST /v1/resize: the requested namespace
// capacity. Resize is an admin operation, not a data-path one — the
// server retargets both the namer's capacity and the lease manager's
// live cap to the same bound.
type ResizeRequest struct {
	Capacity int `json:"capacity"`
}

// ResizeResult is one component's outcome inside a resize response,
// mirroring the batch per-item shape: the namer and the lease cap are
// adjusted independently and either can fail on its own (a one-shot
// namer rejects the resize while the cap still moves).
type ResizeResult struct {
	Component string `json:"component"`
	Error     string `json:"error,omitempty"`
	Code      string `json:"code,omitempty"`
}

// ResizeResponse is the body of a /v1/resize response: the post-resize
// geometry plus per-component verdicts. Draining reports whether a
// shrink is still waiting on held names above the new bound.
type ResizeResponse struct {
	Capacity int            `json:"capacity"`
	MaxLive  int64          `json:"max_live"`
	Epoch    uint64         `json:"epoch"`
	Draining bool           `json:"draining"`
	Results  []ResizeResult `json:"results"`
}

// Error is the body of every non-2xx response the server writes; Code
// is the refusal's row in the code table. A non-2xx body without a code
// did not come from the server's handlers (a mux 404, a proxy's 502).
type Error struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// The JSON spellings of the result codes. Success has no code: the JSON
// wire omits it, and it is "" in Go.
const (
	CodeUnknownName = "unknown_name"
	CodeWrongToken  = "wrong_token"
	CodeExpired     = "expired"
	CodeClosed      = "closed"
	CodeCancelled   = "cancelled"
	CodeInternal    = "internal"
	CodeExhausted   = "exhausted"
	CodeBadRequest  = "bad_request"
)

// ErrServer is the sentinel behind CodeInternal and any code this
// client does not recognize (typically a newer server speaking a newer
// taxonomy): callers can errors.Is(err, wire.ErrServer) instead of
// string-matching the rendered message.
var ErrServer = errors.New("renamed: server error")

// Code is a result code: a row of the code table, and the byte that
// carries it on bin://.
type Code byte

type codeRow struct {
	name    string  // JSON spelling; "" is success
	is      []error // sentinels that classify as this code; a client rebuilds is[0]
	status  int     // HTTP status when the code refuses a whole request
	perItem bool    // can be one batch item's verdict
}

// codes is the one error-code table; a row's index is its byte, and the
// per-item rows come first. unknown_name, wrong_token and expired never
// refuse a whole request (their 500 is unreachable); exhausted and
// bad_request never refuse a single item.
var codes = [...]codeRow{
	{"", nil, http.StatusOK, true},
	{CodeUnknownName, []error{lease.ErrUnknownName}, http.StatusInternalServerError, true},
	{CodeWrongToken, []error{lease.ErrWrongToken}, http.StatusInternalServerError, true},
	{CodeExpired, []error{lease.ErrExpired}, http.StatusInternalServerError, true},
	{CodeClosed, []error{lease.ErrClosed}, http.StatusServiceUnavailable, true},
	{CodeCancelled, []error{renaming.ErrCancelled}, http.StatusRequestTimeout, true},
	{CodeInternal, []error{ErrServer}, http.StatusInternalServerError, true},
	{CodeExhausted, []error{lease.ErrCapacity, renaming.ErrNamespaceExhausted}, http.StatusServiceUnavailable, false},
	{CodeBadRequest, []error{renaming.ErrBadConfig}, http.StatusBadRequest, false},
}

// CodeOf classifies a server-side error: success for nil, internal for
// anything outside the table.
func CodeOf(err error) Code {
	if err == nil {
		return 0
	}
	for c := range codes {
		for _, sentinel := range codes[c].is {
			if errors.Is(err, sentinel) {
				return Code(c)
			}
		}
	}
	return ParseCode(CodeInternal)
}

// ParseCode reads a JSON code; "" is success, and a code this side does
// not know is internal.
func ParseCode(s string) Code {
	for c := range codes {
		if codes[c].name == s {
			return Code(c)
		}
	}
	return ParseCode(CodeInternal)
}

// row is c's table row; a byte beyond the table reads as internal.
func (c Code) row() *codeRow {
	if int(c) < len(codes) {
		return &codes[c]
	}
	return &codes[ParseCode(CodeInternal)]
}

// String is the code's JSON spelling; "" for success.
func (c Code) String() string { return c.row().name }

// Status is the HTTP status of a whole request refused with this code.
func (c Code) Status() int { return c.row().status }

// PerItem reports whether the code can be one batch item's verdict.
func (c Code) PerItem() bool { return c.row().perItem }

// Err rebuilds a typed error a client can errors.Is against the table's
// sentinels, keeping the server's rendered message for logs; nil for
// success.
func (c Code) Err(msg string) error {
	is := c.row().is
	if len(is) == 0 {
		return nil
	}
	if msg == "" || msg == is[0].Error() {
		return is[0]
	}
	return fmt.Errorf("%w (server: %s)", is[0], msg)
}

// FromLease converts a manager lease to its wire form.
func FromLease(l lease.Lease) Lease {
	return Lease{
		Name:        l.Name,
		Token:       l.Token,
		Owner:       l.Owner,
		ExpiresAtMs: l.ExpiresAt.UnixMilli(),
		Meta:        l.Meta,
	}
}

// TTLFromMs converts a client-supplied millisecond count to a Duration
// without overflowing: a wrapped multiplication would turn "longest
// possible lease" into a negative value the manager reads as "default
// TTL". Saturated requests still get capped at the manager's 10×TTL.
func TTLFromMs(ms int64) time.Duration {
	if ms <= 0 {
		return 0 // manager applies its default TTL
	}
	const maxMs = int64(math.MaxInt64) / int64(time.Millisecond)
	if ms > maxMs {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(ms) * time.Millisecond
}
