package leaseclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/wire"
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

// post sends one JSON request and decodes a 2xx response into out.
// Non-2xx responses come back as *ServerError with the error body's
// message, and its Err rebuilt from the body's code — never guessed
// from the status, which a mux or a proxy can answer too.
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
		// A body that does not decode as the server's wire.Error carries
		// no code, and the refusal stays unclassified.
		var we wire.Error
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&we)
		io.Copy(io.Discard, resp.Body)
		return &ServerError{
			Op:        strings.TrimPrefix(path, "/v1/"),
			Status:    resp.StatusCode,
			Msg:       we.Error,
			RequestID: reqID,
			Err:       wire.ParseCode(we.Code).Err(""),
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("leaseclient: decode %s: %w", path, err)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}
