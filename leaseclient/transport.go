package leaseclient

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/wire"
)

// Transport carries the lease protocol's operations to one server. The
// Session layer — heartbeats, backoff, OnLost, re-adoption — is written
// once against this interface; the HTTP/JSON and binary (binproto)
// implementations only move bytes. Every lease operation is batch-
// shaped: one name is a batch of one item, and a refusal of that item
// arrives as its per-item verdict, not as an error.
//
// Error contract: an error that errors.As-matches *ServerError means
// the server RECEIVED the request and refused it; any other error is a
// transport failure where the request may never have arrived — the
// distinction drives the Session's release re-adoption and heartbeat
// backoff. Both implementations classify a refusal, whole-request or
// per-item, by its code in internal/wire's one code table, never by an
// HTTP status. Implementations must be safe for concurrent use.
type Transport interface {
	AcquireBatch(ctx context.Context, req *wire.AcquireBatchRequest) (wire.Leases, error)
	RenewBatch(ctx context.Context, req *wire.RenewBatchRequest) (wire.BatchResults, error)
	ReleaseBatch(ctx context.Context, req *wire.ReleaseBatchRequest) (wire.BatchResults, error)
	// Close releases the transport's connections. The Session closes the
	// transport it constructed; injected transports are the caller's.
	Close() error
}

// DefaultCallTimeout bounds a round trip whose context carries no
// deadline. It exists because "no deadline" against a wedged server —
// one that accepts and never replies — is an unbounded hang in the
// middle of a heartbeat loop.
const DefaultCallTimeout = 10 * time.Second

// NewTransport selects a transport by target scheme: "bin://host:port"
// speaks the binary protocol on a persistent connection, "http://" /
// "https://" the JSON surface. Round trips are bounded by
// DefaultCallTimeout; NewTransportTimeout overrides it.
func NewTransport(target string) (Transport, error) {
	return NewTransportTimeout(target, DefaultCallTimeout)
}

// NewTransportTimeout is NewTransport with an explicit per-call bound
// applied when the caller's context has no deadline. timeout <= 0
// disables the bound (fault-injection harnesses only — a production
// client should always keep one). It is the one place the scheme is
// interpreted — NewSession and NewTransport both come through it, and
// everything above it is transport-neutral.
func NewTransportTimeout(target string, timeout time.Duration) (Transport, error) {
	switch {
	case strings.HasPrefix(target, binScheme):
		return newBinTransport(strings.TrimPrefix(target, binScheme), timeout), nil
	case strings.HasPrefix(target, "http://"), strings.HasPrefix(target, "https://"):
		return newHTTPTransport(target, &http.Client{Timeout: maxDuration(timeout, 0)}), nil
	default:
		return nil, fmt.Errorf("leaseclient: target %q: unsupported scheme (want http://, https:// or bin://)", target)
	}
}

// binScheme prefixes binary-protocol targets.
const binScheme = "bin://"

// ServerError is a request the server received and refused as a whole:
// a non-2xx HTTP response or a binary TError frame. Per-item batch
// verdicts are NOT ServerErrors — they arrive inside successful
// responses. Unwrap yields the sentinel the refusal's code rebuilds to
// in wire's code table (lease.ErrCapacity for exhausted, lease.ErrClosed
// for closed, ...): the code byte of a TError, the "code" of an HTTP
// error body. One table on both wires is what makes errors.Is work
// identically over either transport.
type ServerError struct {
	// Op is the operation, in route-name form ("renew_batch").
	Op string
	// Status is the HTTP status code; 0 on the binary transport.
	Status int
	// Msg is the server-rendered error text.
	Msg string
	// RequestID joins this failure against the server's slow-op log and
	// response headers (16 hex digits on both transports).
	RequestID string
	// Err is the typed sentinel rebuilt from the response's code; nil
	// when the response carried none (an HTTP error that the server's
	// handlers did not write, such as a mux 404 or a proxy's 502).
	Err error
}

func (e *ServerError) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("leaseclient: %s [rid=%s]: HTTP %d: %s", e.Op, e.RequestID, e.Status, e.Msg)
	}
	return fmt.Sprintf("leaseclient: %s [rid=%s]: server: %s", e.Op, e.RequestID, e.Msg)
}

func (e *ServerError) Unwrap() error { return e.Err }
