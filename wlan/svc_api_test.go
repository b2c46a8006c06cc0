package wlan

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/svc"
	"repro/internal/sweep"
)

// TestServeSweepsWorksACampaign runs a Lab worker against a real
// coordinator over HTTP and pins the byte-identity contract from the
// public API side: the merged service output equals the Lab's own
// single-machine SweepStream bytes.
func TestServeSweepsWorksACampaign(t *testing.T) {
	g := &Grid{
		Name: "facade-svc",
		Base: scenario.Spec{
			Topology: scenario.TopologySpec{Kind: scenario.TopoConnected},
			Duration: scenario.Duration(50e6),
		},
		Axes: []Axis{{Field: FieldNodes, Values: Ints(2, 3, 4)}},
	}
	lab := NewLab(WithParallelism(2))
	defer lab.Close()

	var ref bytes.Buffer
	if _, err := lab.SweepStream(context.Background(), g, &ref); err != nil {
		t.Fatal(err)
	}

	cache, err := sweep.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer // written under the coordinator's lock; read after Done
	c, err := svc.NewCoordinator(svc.CoordinatorConfig{
		Grid:     g,
		Cache:    cache,
		Out:      &out,
		LeaseTTL: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go c.Run(ctx)

	if err := lab.ServeSweeps(ctx, srv.URL, WithWorkerID("lab-1"), WithWorkerBatch(2), WithServeLogf(t.Logf)); err != nil {
		t.Fatalf("ServeSweeps: %v", err)
	}
	select {
	case <-c.Done():
	case <-ctx.Done():
		t.Fatalf("campaign did not finish: %+v", c.Stats())
	}
	if !bytes.Equal(out.Bytes(), ref.Bytes()) {
		t.Errorf("service rows differ from Lab.SweepStream (%d vs %d bytes)", out.Len(), ref.Len())
	}
}

// TestServeSweepsSentinels pins the facade's error surface: svc-layer
// sentinels map onto public wlan sentinels, a closed Lab refuses to
// serve, and cancellation folds into ErrCanceled.
func TestServeSweepsSentinels(t *testing.T) {
	mappings := []struct {
		in   error
		want error
	}{
		{svc.ErrLeaseExpired, ErrLeaseExpired},
		{svc.ErrCoordinatorUnavailable, ErrCoordinatorUnavailable},
	}
	for _, m := range mappings {
		if got := wrapErr(m.in); !errors.Is(got, m.want) || !errors.Is(got, m.in) {
			t.Errorf("wrapErr(%v) = %v, want both %v and the cause", m.in, got, m.want)
		}
	}

	closed := NewLab()
	closed.Close()
	if err := closed.ServeSweeps(context.Background(), "http://127.0.0.1:0"); !errors.Is(err, ErrClosed) {
		t.Errorf("ServeSweeps on closed lab: %v, want ErrClosed", err)
	}

	lab := NewLab()
	defer lab.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := lab.ServeSweeps(ctx, "http://127.0.0.1:0"); !errors.Is(err, ErrCanceled) {
		t.Errorf("ServeSweeps with cancelled ctx: %v, want ErrCanceled", err)
	}
}
