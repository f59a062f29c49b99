package leaseclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	renaming "repro"
	"repro/internal/wire"
	"repro/lease"
)

// httpTransport speaks the /v1 JSON surface. Every request carries a
// fresh wire.HeaderRequestID, and transport and server errors embed it
// so a failure in a client log joins against the server's record of the
// same request.
type httpTransport struct {
	base   string
	client *http.Client
}

func newHTTPTransport(base string, client *http.Client) *httpTransport {
	return &httpTransport{base: base, client: client}
}

func (t *httpTransport) AcquireBatch(ctx context.Context, req *wire.AcquireBatchRequest) (wire.Leases, error) {
	var ls wire.Leases
	err := t.post(ctx, "/v1/acquire_batch", req, &ls)
	return ls, err
}

func (t *httpTransport) RenewBatch(ctx context.Context, req *wire.RenewBatchRequest) (wire.BatchResults, error) {
	var rs wire.BatchResults
	err := t.post(ctx, "/v1/renew_batch", req, &rs)
	return rs, err
}

func (t *httpTransport) ReleaseBatch(ctx context.Context, req *wire.ReleaseBatchRequest) (wire.BatchResults, error) {
	var rs wire.BatchResults
	err := t.post(ctx, "/v1/release_batch", req, &rs)
	return rs, err
}

// Close is a no-op: the http.Client's pooled connections outlive any
// one transport by design.
func (t *httpTransport) Close() error { return nil }

// sentinelForStatus inverts the server's writeError status mapping so a
// ServerError over HTTP Unwraps to the same typed sentinels the binary
// transport recovers from its code byte. Ambiguous statuses (503 covers
// both exhaustion and a closing server) pick the retryable reading.
func sentinelForStatus(status int) error {
	switch status {
	case http.StatusServiceUnavailable:
		return lease.ErrCapacity
	case http.StatusConflict:
		return lease.ErrWrongToken
	case http.StatusGone:
		return lease.ErrExpired
	case http.StatusNotFound:
		return lease.ErrUnknownName
	case http.StatusRequestTimeout:
		return renaming.ErrCancelled
	case http.StatusBadRequest:
		return renaming.ErrBadConfig
	default:
		return nil
	}
}

// post sends one JSON request and decodes a 2xx response into out.
// Non-2xx responses come back as *ServerError with the wire error
// body's message; the typed per-item errors inside batch results flow
// through wire.ErrFor instead.
func (t *httpTransport) post(ctx context.Context, path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("leaseclient: encode %s: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+path, bytes.NewReader(buf))
	if err != nil {
		return fmt.Errorf("leaseclient: %s: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	reqID := wire.NewRequestID()
	req.Header.Set(wire.HeaderRequestID, reqID)
	resp, err := t.client.Do(req)
	if err != nil {
		return fmt.Errorf("leaseclient: %s [rid=%s]: %w", path, reqID, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var we wire.Error
		msg := ""
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&we) == nil {
			msg = we.Error
		}
		io.Copy(io.Discard, resp.Body)
		return &ServerError{
			Op:        strings.TrimPrefix(path, "/v1/"),
			Status:    resp.StatusCode,
			Msg:       msg,
			RequestID: reqID,
			Err:       sentinelForStatus(resp.StatusCode),
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("leaseclient: decode %s: %w", path, err)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}
