package svc

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// TestWorkerAbandonsBatchOnLostLease drives the worker against a stub
// coordinator that grants one long lease and answers its first
// heartbeat with lease_expired. The worker must cancel the batch, never
// submit a completion for the lost lease, lease again, and exit cleanly
// when the next lease answers Done.
func TestWorkerAbandonsBatchOnLostLease(t *testing.T) {
	pts, err := sweep.Expand(testGrid("svc-lost-lease", 5))
	if err != nil {
		t.Fatal(err)
	}
	// Thousands of short replications: the runner cancels between
	// replications, so an abandoned batch stops within one of them.
	const seeds = 5000
	sp := pts[0].Spec
	sp.Seeds = seeds
	specJSON, err := json.Marshal(&sp)
	if err != nil {
		t.Fatal(err)
	}

	var leases, heartbeats, completes atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		if leases.Add(1) > 1 {
			writeResult(w, &LeaseResponse{Done: true}, nil)
			return
		}
		writeResult(w, &LeaseResponse{
			LeaseID: "lost",
			TTLMS:   60,
			Points:  []LeasePoint{{Index: 0, Name: pts[0].Name, Key: pts[0].Key, Spec: specJSON}},
		}, nil)
	})
	mux.HandleFunc("POST /v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		heartbeats.Add(1)
		writeError(w, fmt.Errorf("%w: stub coordinator", ErrLeaseExpired))
	})
	mux.HandleFunc("POST /v1/complete", func(w http.ResponseWriter, r *http.Request) {
		completes.Add(1)
		writeResult(w, &CompleteResponse{}, nil)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	runner := &scenario.Runner{Parallelism: 1, Metrics: scenario.NewMetrics(metrics.NewRegistry())}
	defer runner.Close()
	w, err := NewWorker(WorkerConfig{Client: fastClient(srv.URL), ID: "lost", Runner: runner, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("Run: %v, want nil once the campaign is done", err)
	}
	if n := completes.Load(); n != 0 {
		t.Errorf("worker posted %d completion(s) for a lost lease", n)
	}
	if n := leases.Load(); n != 2 {
		t.Errorf("worker sent %d lease requests, want 2 (the lost lease, then Done)", n)
	}
	if heartbeats.Load() == 0 {
		t.Error("worker never heartbeat its lease")
	}
	if n := runner.Metrics.Replications.Value(); n >= seeds {
		t.Errorf("worker ran all %d replications of the lost batch, want it abandoned", n)
	}
}

// TestNewWorkerRequiresClientAndRunner: the caller owns the scenario
// runner, so a worker without one is a configuration error, like a
// worker without a client.
func TestNewWorkerRequiresClientAndRunner(t *testing.T) {
	r := &scenario.Runner{}
	defer r.Close()
	for name, cfg := range map[string]WorkerConfig{
		"no client": {Runner: r},
		"no runner": {Client: fastClient("http://127.0.0.1:1")},
	} {
		if _, err := NewWorker(cfg); err == nil {
			t.Errorf("%s: NewWorker accepted the config", name)
		}
	}
	if _, err := NewWorker(WorkerConfig{Client: fastClient("http://127.0.0.1:1"), Runner: r}); err != nil {
		t.Errorf("complete config: %v", err)
	}
}
