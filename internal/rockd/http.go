package rockd

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/image"
)

// Response is the envelope for a completed submission. Report and Stats
// are raw pre-marshaled JSON from the producing analysis — a hot hit
// writes them straight out of the cache without re-encoding.
type Response struct {
	// Digest is the image's content digest (hex) — the dedupe key.
	Digest string `json:"digest"`
	// Source records how this result was produced: "hot" (in-memory
	// cache), "warm" (snapshot restore), "incremental" (version-diff
	// lane), or "cold" (full analysis).
	Source string `json:"source"`
	// Coalesced reports this submission joined an analysis another
	// submission had already started (singleflight).
	Coalesced bool `json:"coalesced,omitempty"`
	// Class is the admission class the request ran under.
	Class string `json:"class"`
	// QueueWaitNS is time the producing flight spent waiting for
	// admission; zero for hot hits and warm-bypass submissions.
	QueueWaitNS int64 `json:"queue_wait_ns"`
	// AnalysisNS is the producing analysis's server-side wall time (the
	// original run's, for hot hits). TotalNS is this request's wall time.
	AnalysisNS int64 `json:"analysis_ns"`
	TotalNS    int64 `json:"total_ns"`

	Report json.RawMessage `json:"report"`
	Stats  json.RawMessage `json:"stats,omitempty"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// Handler returns the daemon's HTTP mux:
//
//	POST /v1/analyze            submit an image body, wait for the result
//	POST /v1/submit             submit without waiting (batch ingest)
//	GET  /v1/result/{digest}    poll a previously submitted digest
//	GET  /metrics               server metrics (also /v1/metrics)
//	GET  /healthz               liveness (503 while draining)
//
// Submission endpoints take the raw image bytes as the request body and
// an optional ?class=interactive|batch query parameter.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/submit", s.handleSubmit)
	mux.HandleFunc("GET /v1/result/{digest}", s.handleResult)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// readBodyTimeout bounds how long a client may take to send a submission
// body: a client that trickles its body gets 408 instead of holding a
// handler forever. It is a read deadline armed around the body read only,
// not a server-wide timeout, so neither the analysis nor the response
// that follows is ever timed.
const readBodyTimeout = 60 * time.Second

// bodyTimeout is the body deadline readImage applies; tests shorten it.
var bodyTimeout = readBodyTimeout

// readImage decodes the submission body. Enforces MaxBodyBytes before
// parsing so an oversized upload fails fast, and bodyTimeout so a slow
// one does too; a fully read body clears the deadline before analysis.
func (s *Server) readImage(w http.ResponseWriter, r *http.Request) (*image.Image, Class, bool) {
	class, err := ParseClass(r.URL.Query().Get("class"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, "", false
	}
	// SetReadDeadline fails only on a writer with no connection behind it
	// (a handler mounted on a test recorder); the body is then unbounded.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(bodyTimeout))
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		// The deadline stays armed: the server's drain of the unread body
		// fails at it and the connection is closed, not left waiting.
		var tooLarge *http.MaxBytesError
		switch {
		case errors.As(err, &tooLarge):
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("image exceeds %d bytes", s.cfg.MaxBodyBytes))
		case errors.Is(err, os.ErrDeadlineExceeded):
			writeError(w, http.StatusRequestTimeout,
				fmt.Errorf("image body not received within %s", bodyTimeout))
		default:
			writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		}
		return nil, "", false
	}
	_ = rc.SetReadDeadline(time.Time{})
	img, err := image.Load(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parsing image: %w", err))
		return nil, "", false
	}
	return img, class, true
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	img, class, ok := s.readImage(w, r)
	if !ok {
		return
	}
	// r.Context() is canceled when the client disconnects; do propagates
	// that into the flight's refcount.
	out, err := s.do(r.Context(), img, class)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	total := time.Since(t0)
	s.latency[class].observe(total)
	writeJSON(w, http.StatusOK, &Response{
		Digest:      hex.EncodeToString(out.entry.digest[:]),
		Source:      out.source,
		Coalesced:   out.coalesced,
		Class:       string(class),
		QueueWaitNS: out.queueWaitNS,
		AnalysisNS:  out.entry.analysisNS,
		TotalNS:     total.Nanoseconds(),
		Report:      out.entry.report,
		Stats:       out.entry.stats,
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	img, class, ok := s.readImage(w, r)
	if !ok {
		return
	}
	digest, status, err := s.submitAsync(img, class)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	code := http.StatusAccepted
	if status == "hot" {
		code = http.StatusOK
	}
	writeJSON(w, code, map[string]string{
		"digest": hex.EncodeToString(digest[:]),
		"status": status,
		"class":  string(class),
	})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	raw, err := hex.DecodeString(r.PathValue("digest"))
	if err != nil || len(raw) != 32 {
		writeError(w, http.StatusBadRequest, errors.New("digest must be 64 hex characters"))
		return
	}
	var digest [32]byte
	copy(digest[:], raw)
	if e := s.cache.get(digest); e != nil {
		s.hotHits.Add(1)
		writeJSON(w, http.StatusOK, &Response{
			Digest:     hex.EncodeToString(digest[:]),
			Source:     "hot",
			AnalysisNS: e.analysisNS,
			Report:     e.report,
			Stats:      e.stats,
		})
		return
	}
	s.mu.Lock()
	_, inflight := s.flights[digest]
	failure, failed := s.failed[digest]
	s.mu.Unlock()
	switch {
	case inflight:
		writeJSON(w, http.StatusAccepted, map[string]string{"status": "inflight"})
	case failed:
		writeJSON(w, http.StatusOK, map[string]string{"status": "failed", "error": failure})
	default:
		// Unknown, evicted, or never submitted — the poller resubmits;
		// the snapshot store makes the retry warm.
		writeError(w, http.StatusNotFound, errors.New("no result for digest (submit it)"))
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// writeSubmitError maps submission failures onto status codes: queue
// overflow is backpressure (429), drain is 503, a canceled client gets
// the nonstandard-but-conventional 499, anything else is a 500.
func writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.Canceled):
		writeError(w, 499, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
