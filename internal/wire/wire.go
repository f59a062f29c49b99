// Package wire is the JSON wire contract of cmd/renamed's /v1 HTTP API,
// shared by the server's handlers and the leaseclient session layer so
// the two cannot drift. Durations travel as integer milliseconds and
// instants as Unix milliseconds — clients need no time-format parsing.
//
// Batch renew/release responses are PER-ITEM: the request was processed
// even when individual items failed, and each failed item carries both a
// human-readable error and a machine-readable code (see the Code
// constants) that round-trips to the lease package's typed sentinels via
// CodeFor/ErrFor. A heartbeating session uses the codes to learn exactly
// which leases it lost and why.
package wire

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
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

// Error is the body of every non-2xx response.
type Error struct {
	Error string `json:"error"`
}

// Per-item failure codes. CodeInternal covers errors outside the lease
// taxonomy (e.g. a namer that refuses to take a released name back).
const (
	CodeUnknownName = "unknown_name"
	CodeWrongToken  = "wrong_token"
	CodeExpired     = "expired"
	CodeClosed      = "closed"
	CodeCancelled   = "cancelled"
	CodeInternal    = "internal"
)

// CodeFor maps a per-item error from lease.Manager onto its wire code.
func CodeFor(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, lease.ErrUnknownName):
		return CodeUnknownName
	case errors.Is(err, lease.ErrWrongToken):
		return CodeWrongToken
	case errors.Is(err, lease.ErrExpired):
		return CodeExpired
	case errors.Is(err, lease.ErrClosed):
		return CodeClosed
	case errors.Is(err, renaming.ErrCancelled):
		return CodeCancelled
	default:
		return CodeInternal
	}
}

// ErrServer is the sentinel behind CodeInternal and any code this
// client does not recognize (typically a newer server speaking a newer
// taxonomy). It keeps the default arm of ErrFor inside the typed
// taxonomy: callers can errors.Is(err, wire.ErrServer) instead of
// string-matching the rendered message.
var ErrServer = errors.New("renamed: server error")

// ErrFor is CodeFor's client-side inverse: it rebuilds a typed error a
// session can errors.Is against the lease sentinels, keeping the
// server's rendered message for logs.
func ErrFor(code, msg string) error {
	var sentinel error
	switch code {
	case "":
		return nil
	case CodeUnknownName:
		sentinel = lease.ErrUnknownName
	case CodeWrongToken:
		sentinel = lease.ErrWrongToken
	case CodeExpired:
		sentinel = lease.ErrExpired
	case CodeClosed:
		sentinel = lease.ErrClosed
	case CodeCancelled:
		sentinel = renaming.ErrCancelled
	default:
		sentinel = ErrServer
	}
	if msg == "" || msg == sentinel.Error() {
		return sentinel
	}
	return fmt.Errorf("%w (server: %s)", sentinel, msg)
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
// TTL". Saturated requests still get capped at the manager's MaxTTL.
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
