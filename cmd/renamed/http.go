package main

import (
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"sync/atomic"
	"time"

	renaming "repro"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/lease"
	"repro/lease/persist"
)

// server is the HTTP front end over the shared service core: JSON
// adapters around the same three batch operations the binary protocol
// serves, plus the admin and observability surfaces (/v1/resize,
// /v1/leases, /healthz, /metrics, pprof) that only exist over HTTP.
type server struct {
	mgr *lease.Manager
	mux *http.ServeMux
	// patterns lists everything handle mounted on mux, which cannot
	// enumerate itself: the whole HTTP surface, in mount order.
	patterns []string
	start    time.Time
	// store is the optional durability layer; non-nil only with -data-dir.
	// The handlers never touch it (the manager's observer hook does the
	// journaling); it is here for the persistence gauges.
	store *persist.Store

	// core is the transport-neutral request core; bind is its "http"
	// binding (pre-resolved per-transport instrumentation). binSrv is the
	// optional binary-protocol front end over the SAME core, attached by
	// run() when -listen-bin is set and closed through serveGraceful.
	core   *service.Core
	bind   *service.Binding
	binSrv *service.BinServer

	// met is the Prometheus surface (GET /metrics).
	met *serverMetrics

	// errors counts requests answered with an error status
	// (renamed_http_errors_total).
	errors atomic.Int64

	// slowThreshold gates the structured slow-operation log line; 0
	// disables it. slowLog defaults to stderr; tests redirect it.
	slowThreshold time.Duration
	slowLog       *slog.Logger
}

// newServer wires the routes and metrics for one manager. store may be
// nil (in-memory mode); when set, the persistence series register too.
func newServer(mgr *lease.Manager, store *persist.Store) *server {
	s := &server{
		mgr:     mgr,
		mux:     http.NewServeMux(),
		start:   time.Now(),
		store:   store,
		slowLog: slog.New(slog.NewTextHandler(os.Stderr, nil)),
	}
	s.met = newServerMetrics(s)
	s.core = service.New(mgr, s.met.svc)
	s.bind = s.core.Bind("http")
	s.mountTimed("acquire_batch", s.handleAcquireBatch)
	s.mountTimed("renew_batch", s.handleRenewBatch)
	s.mountTimed("release_batch", s.handleReleaseBatch)
	s.mountTimed("resize", s.handleResize)
	s.handle("GET /v1/leases", s.handleLeases)
	s.handle("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	s.handle("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", telemetry.ContentType)
		s.met.reg.WritePrometheus(w)
	})
	return s
}

// enablePprof mounts net/http/pprof on the server's private mux (the
// package's init-time handlers live on http.DefaultServeMux, which this
// server never serves). Profiling endpoints cost CPU and reveal internal
// state, so they are opt-in via -pprof.
func (s *server) enablePprof() {
	s.handle("GET /debug/pprof/", pprof.Index)
	s.handle("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.handle("GET /debug/pprof/profile", pprof.Profile)
	s.handle("GET /debug/pprof/symbol", pprof.Symbol)
	s.handle("GET /debug/pprof/trace", pprof.Trace)
}

// handle is the one way onto the mux.
func (s *server) handle(pattern string, fn http.HandlerFunc) {
	s.patterns = append(s.patterns, pattern)
	s.mux.HandleFunc(pattern, fn)
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Echo the client's request ID on every response so either side of a
	// slow or failed call can quote the same handle; mint one for bare
	// callers (curl) so the slow-op log never carries an empty id. The
	// mint is written back onto the request header, which is where
	// mountTimed() reads it from.
	rid := r.Header.Get(wire.HeaderRequestID)
	if rid == "" {
		rid = wire.NewRequestID()
		r.Header.Set(wire.HeaderRequestID, rid)
	}
	w.Header().Set(wire.HeaderRequestID, rid)
	s.mux.ServeHTTP(w, r)
}

// mountTimed mounts fn as "POST /v1/<op>", timed for the slow-operation
// log line carrying the request's X-Request-Id. Request counts and
// latency are the service core's (renamed_requests_total{transport="http"}).
func (s *server) mountTimed(op string, fn http.HandlerFunc) {
	s.handle("POST /v1/"+op, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		fn(w, r)
		if d := time.Since(start); s.slowThreshold > 0 && d >= s.slowThreshold {
			s.slowLog.Warn("slow operation",
				"op", op,
				"duration_ms", float64(d)/float64(time.Millisecond),
				"request_id", r.Header.Get(wire.HeaderRequestID))
		}
	})
}

// The JSON wire types live in internal/wire, shared with the leaseclient
// session layer so server and client cannot drift; the handlers below
// are thin JSON adapters over the service core's bindings. Like the core,
// the routes are batch-shaped only: one lease is acquire_batch with
// "count":1, and a refused item arrives as its per-item code.

func (s *server) handleAcquireBatch(w http.ResponseWriter, r *http.Request) {
	var req wire.AcquireBatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	ls, err := s.bind.AcquireBatch(r.Context(), &req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, wire.Leases{Leases: ls})
}

// handleRenewBatch is the heartbeat hot path: one request renews every
// lease a session holds through one lock visit per involved stripe. The
// response is per-item — 200 even when individual items failed — because
// a session must learn exactly which leases it lost; only a request that
// could not be processed at all (malformed body, closed manager, context
// already done) gets a non-2xx status.
func (s *server) handleRenewBatch(w http.ResponseWriter, r *http.Request) {
	var req wire.RenewBatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	items := make([]lease.RenewItem, len(req.Items))
	for i, it := range req.Items {
		items[i] = lease.RenewItem{Name: it.Name, Token: it.Token}
	}
	// The request context is threaded through: a client that disconnects
	// mid-batch stops the stripe walk instead of renewing leases for a
	// session that is gone.
	verdicts, err := s.bind.RenewBatch(r.Context(), wire.TTLFromMs(req.TTLms), items, nil)
	if err != nil {
		s.writeError(w, err)
		return
	}
	out := wire.BatchResults{Results: make([]wire.BatchResult, len(verdicts))}
	for i, v := range verdicts {
		if v.Code != "" {
			out.Results[i] = wire.BatchResult{Error: v.Msg, Code: v.Code}
			continue
		}
		l := v.Lease
		out.Results[i].Lease = &l
	}
	s.writeJSON(w, http.StatusOK, out)
}

// handleReleaseBatch ends many leases in one request with per-item
// outcomes, mirroring handleRenewBatch — the shutdown path of a session
// holding hundreds of names must not take hundreds of round trips.
func (s *server) handleReleaseBatch(w http.ResponseWriter, r *http.Request) {
	var req wire.ReleaseBatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	items := make([]lease.ReleaseItem, len(req.Items))
	for i, it := range req.Items {
		items[i] = lease.ReleaseItem{Name: it.Name, Token: it.Token}
	}
	verdicts, err := s.bind.ReleaseBatch(r.Context(), items, nil)
	if err != nil {
		s.writeError(w, err)
		return
	}
	out := wire.BatchResults{Results: make([]wire.BatchResult, len(verdicts))}
	for i, v := range verdicts {
		if v.Code != "" {
			out.Results[i] = wire.BatchResult{Error: v.Msg, Code: v.Code}
		}
	}
	s.writeJSON(w, http.StatusOK, out)
}

// handleResize retargets the elastic namespace online: the namer's
// capacity and the lease manager's live cap move together (see
// service.Binding.Resize for the ordering guarantees). The response
// follows the batch per-item contract — 200 with per-component verdicts
// even when a component refused, because the operator must learn
// exactly which half moved; only a malformed body gets a non-2xx.
func (s *server) handleResize(w http.ResponseWriter, r *http.Request) {
	var req wire.ResizeRequest
	if !s.decode(w, r, &req) {
		return
	}
	st := s.bind.Resize(req.Capacity)
	s.writeJSON(w, http.StatusOK, st.Wire())
}

func (s *server) handleLeases(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, wire.Leases{Leases: s.core.Leases()})
}

func (s *server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(into); err != nil {
		s.errors.Add(1)
		s.writeJSON(w, http.StatusBadRequest, wire.Error{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

// errorStatus maps lease/namer errors onto HTTP status codes:
// exhaustion is 503 (retryable), stale tokens are 409, expiry is 410,
// unknown names are 404, bad batch parameters are 400, and an acquisition
// the client itself abandoned is 408 (the response is usually unread —
// the status mostly serves the error counter and access logs).
func errorStatus(err error) int {
	switch {
	case errors.Is(err, renaming.ErrNamespaceExhausted), errors.Is(err, lease.ErrCapacity):
		return http.StatusServiceUnavailable
	case errors.Is(err, renaming.ErrCancelled):
		return http.StatusRequestTimeout
	case errors.Is(err, renaming.ErrBadConfig):
		return http.StatusBadRequest
	case errors.Is(err, lease.ErrWrongToken):
		return http.StatusConflict
	case errors.Is(err, lease.ErrExpired):
		return http.StatusGone
	case errors.Is(err, lease.ErrUnknownName):
		return http.StatusNotFound
	case errors.Is(err, lease.ErrClosed):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func (s *server) writeError(w http.ResponseWriter, err error) {
	s.errors.Add(1)
	s.writeJSON(w, errorStatus(err), wire.Error{Error: err.Error()})
}

func (s *server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// logFinalSnapshot emits the shutdown metrics snapshot: one structured
// log line with the counters an operator wants in the last lines before
// the process exits (and that a log pipeline can parse without scraping
// /metrics mid-shutdown). Safe after Close/Shutdown — every source here
// reads atomics or mutex-guarded snapshots.
func (s *server) logFinalSnapshot(out io.Writer) {
	lm := s.mgr.Metrics()
	attrs := []any{
		"uptime_s", time.Since(s.start).Seconds(),
		"errors", s.errors.Load(),
		"acquired", lm.Acquired,
		"renewed", lm.Renewed,
		"released", lm.Released,
		"expired", lm.Expired,
		"rejected", lm.Rejected,
		"live", lm.Live,
		"max_live", lm.MaxLive,
		"resizes", lm.Resizes,
	}
	// Per transport: heartbeats ride bin:// on a production server, and
	// one blended figure would hide which wire is slow.
	for _, tr := range []string{"http", "bin"} {
		attrs = append(attrs, "renew_p99_us_"+tr,
			float64(s.met.svc.Quantile(tr, "renew_batch", 0.99))/1e3)
	}
	if s.store != nil {
		st := s.store.Stats()
		attrs = append(attrs,
			"persist_appends", st.Appends,
			"persist_fsyncs", st.Syncs,
			"persist_compactions", st.Compactions,
			"persist_journal_bytes", st.JournalBytes,
		)
		if st.Err != nil {
			attrs = append(attrs, "persist_err", st.Err.Error())
		}
	}
	slog.New(slog.NewTextHandler(out, nil)).Info("final metrics snapshot", attrs...)
}
