package service

import (
	"time"

	"repro/internal/telemetry"
)

// Operation indices for pre-resolved per-op instrumentation handles.
const (
	opAcquireBatch = iota
	opRenewBatch
	opReleaseBatch
	opResize
	opCount
)

// opName maps the indices onto the label values shared with the HTTP
// route names.
var opName = [opCount]string{
	"acquire_batch", "renew_batch", "release_batch", "resize",
}

// Transports are the label values the per-transport series are
// pre-resolved for, so the exposition is stable from the first scrape
// whether or not a transport has seen traffic.
var transports = []string{"http", "bin"}

// verdictCodes are the per-item outcomes a batch endpoint can report;
// "ok" is the success code (the wire sends success as an absent code).
var verdictCodes = []string{
	"ok",
	"unknown_name", "wrong_token", "expired", "closed", "cancelled", "internal",
}

// opHandle is one (transport, op)'s pre-resolved instrumentation.
type opHandle struct {
	reqs *telemetry.Counter
	lat  *telemetry.Histogram
}

// verdictSet pre-resolves one batch op's per-code verdict counters;
// indexing a plain map is lock-free, CounterVec.With is not. A nil set
// (telemetry disabled) ignores increments.
type verdictSet struct {
	byCode map[string]*telemetry.Counter
}

func (v *verdictSet) inc(code string) {
	if v == nil {
		return
	}
	if c, ok := v.byCode[code]; ok {
		c.Inc()
	}
}

// Telemetry is the service core's metric surface: request counts and
// latency labeled by (transport, op), and the per-item batch verdict
// counters shared by every transport. These are the only request
// series: the HTTP adapter keeps no family of its own.
type Telemetry struct {
	requests *telemetry.CounterVec
	latency  *telemetry.HistogramVec
	verdicts map[string]*verdictSet
}

// NewTelemetry registers the service families on reg. Every
// (transport, op) and (op, code) child is resolved up front so the
// exposition surface is identical on an idle server and a busy one.
func NewTelemetry(reg *telemetry.Registry) *Telemetry {
	t := &Telemetry{
		requests: reg.CounterVec("renamed_requests_total",
			"Requests served by the service core, by transport and operation.", "transport", "op"),
		latency: reg.HistogramVec("renamed_request_duration_seconds",
			"Service-core operation latency, by transport and operation.", "transport", "op"),
		verdicts: map[string]*verdictSet{},
	}
	for _, tr := range transports {
		for _, op := range opName {
			t.requests.With(tr, op)
			t.latency.With(tr, op)
		}
	}
	vec := reg.CounterVec("renamed_batch_item_verdicts_total",
		"Per-item outcomes inside renew_batch/release_batch responses.", "op", "code")
	for _, op := range []string{"renew_batch", "release_batch"} {
		set := &verdictSet{byCode: map[string]*telemetry.Counter{}}
		for _, code := range verdictCodes {
			set.byCode[code] = vec.With(op, code)
		}
		t.verdicts[op] = set
	}
	return t
}

// Quantile reads an upper bound on the q-quantile of one (transport,
// op)'s latency (see telemetry.Histogram.Quantile); 0 with no samples.
func (t *Telemetry) Quantile(transport, op string, q float64) time.Duration {
	return t.handle(transport, op).lat.Quantile(q)
}

// handle resolves one (transport, op) instrumentation pair.
func (t *Telemetry) handle(transport, op string) opHandle {
	return opHandle{
		reqs: t.requests.With(transport, op),
		lat:  t.latency.With(transport, op),
	}
}
