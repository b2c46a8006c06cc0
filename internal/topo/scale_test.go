package topo

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// denseRef is the historical O(n²) connectivity representation, built
// with the exact loop New used before the grid index. It is the
// reference model for the dense-vs-indexed equivalence property: the
// sparse representation must reproduce every matrix-derived answer bit
// for bit.
type denseRef struct {
	senses  [][]bool
	decodes [][]bool
}

func buildDense(stations []Point, r Radii) *denseRef {
	n := len(stations)
	d := &denseRef{senses: make([][]bool, n), decodes: make([][]bool, n)}
	for i := 0; i < n; i++ {
		d.senses[i] = make([]bool, n)
		d.decodes[i] = make([]bool, n)
		for j := 0; j < n; j++ {
			if i == j {
				d.senses[i][j] = true
				d.decodes[i][j] = true
				continue
			}
			dist := stations[i].Distance(stations[j])
			d.senses[i][j] = dist <= r.Sensing
			d.decodes[i][j] = dist <= r.Transmission
		}
	}
	return d
}

func (d *denseRef) sensedBy(i int) []int32 {
	out := []int32{}
	for j := range d.senses {
		if j != i && d.senses[j][i] {
			out = append(out, int32(j))
		}
	}
	return out
}

func (d *denseRef) hiddenPairs() [][2]int {
	var pairs [][2]int
	for i := range d.senses {
		for j := i + 1; j < len(d.senses); j++ {
			if !d.senses[i][j] {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	return pairs
}

func (d *denseRef) fullyConnected() bool {
	for i := range d.senses {
		for j := range d.senses[i] {
			if !d.senses[i][j] {
				return false
			}
		}
	}
	return true
}

// equivalent checks every matrix-derived accessor of tp against the
// dense reference.
func equivalent(t *testing.T, tp *Topology, ref *denseRef) bool {
	t.Helper()
	n := tp.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if tp.Senses(i, j) != ref.senses[i][j] {
				t.Logf("Senses(%d,%d) = %v, dense says %v", i, j, tp.Senses(i, j), ref.senses[i][j])
				return false
			}
			if tp.Decodes(i, j) != ref.decodes[i][j] {
				t.Logf("Decodes(%d,%d) = %v, dense says %v", i, j, tp.Decodes(i, j), ref.decodes[i][j])
				return false
			}
		}
		got, want := tp.SensedBy(i), ref.sensedBy(i)
		if len(got) != len(want) {
			t.Logf("SensedBy(%d) = %v, dense says %v", i, got, want)
			return false
		}
		for k := range got {
			if got[k] != want[k] {
				t.Logf("SensedBy(%d) = %v, dense says %v", i, got, want)
				return false
			}
		}
	}
	gotPairs, wantPairs := tp.HiddenPairs(), ref.hiddenPairs()
	if len(gotPairs) != len(wantPairs) {
		t.Logf("HiddenPairs: %d pairs, dense says %d", len(gotPairs), len(wantPairs))
		return false
	}
	for k := range gotPairs {
		if gotPairs[k] != wantPairs[k] {
			t.Logf("HiddenPairs[%d] = %v, dense says %v", k, gotPairs[k], wantPairs[k])
			return false
		}
	}
	if got, want := tp.HiddenPairCount(), int64(len(wantPairs)); got != want {
		t.Logf("HiddenPairCount = %d, dense says %d", got, want)
		return false
	}
	if got, want := tp.FullyConnected(), ref.fullyConnected(); got != want {
		t.Logf("FullyConnected = %v, dense says %v", got, want)
		return false
	}
	return true
}

// TestGridIndexedAdjacencyMatchesDense is the dense-vs-indexed
// equivalence property: on random UniformDisc layouts (the paper's
// hidden-node construction, mixed radii so hidden pairs actually occur)
// every accessor must agree with the historical dense matrices.
func TestGridIndexedAdjacencyMatchesDense(t *testing.T) {
	prop := func(seed int64, nRaw uint8, wide bool) bool {
		n := 1 + int(nRaw)%60
		radius := 16.0
		if wide {
			radius = 20 // beyond-rim draws: more hidden pairs
		}
		rng := sim.NewRNG(seed)
		pts := UniformDisc(n, radius, rng)
		r := PaperRadii()
		return equivalent(t, New(Point{}, pts, r), buildDense(pts, r))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestGridIndexedAdjacencyMatchesDenseClusters runs the same equivalence
// on the deterministic TwoClusters family across separations straddling
// the sensing radius (fully connected, boundary, maximally hidden).
func TestGridIndexedAdjacencyMatchesDenseClusters(t *testing.T) {
	for _, sep := range []float64{4, 12, 23.9, 24, 24.1, 30} {
		for _, n := range []int{2, 3, 10, 25} {
			pts := TwoClusters(n, sep)
			r := PaperRadii()
			if !equivalent(t, New(Point{}, pts, r), buildDense(pts, r)) {
				t.Fatalf("n=%d separation=%g: grid-indexed adjacency diverged from dense", n, sep)
			}
		}
	}
}

// TestSensedByZeroAlloc pins the satellite fix: SensedBy serves a view
// into the precomputed neighbour storage, so the per-station setup loop
// in eventsim costs zero allocations per call instead of O(n) each.
func TestSensedByZeroAlloc(t *testing.T) {
	rng := sim.NewRNG(11)
	tp := New(Point{}, UniformDisc(64, 16, rng), PaperRadii())
	tp.SensedBy(0) // materialise the adjacency outside the measurement
	var sink []int32
	if avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < tp.N(); i++ {
			sink = tp.SensedBy(i)
		}
	}); avg != 0 {
		t.Errorf("SensedBy allocates %.2f per full sweep, want 0", avg)
	}
	_ = sink
}

// TestEnsureAdjacencyBudget: a layout whose neighbour lists exceed the
// entry budget must be refused with a diagnosable error before any
// allocation, and an unbounded call must still succeed afterwards.
func TestEnsureAdjacencyBudget(t *testing.T) {
	tp := New(Point{}, CircleEdge(10, 8), PaperRadii()) // 10·9 = 90 entries
	if err := tp.EnsureAdjacency(89); err == nil {
		t.Fatal("EnsureAdjacency accepted a layout over the entry budget")
	}
	if err := tp.EnsureAdjacency(90); err != nil {
		t.Fatalf("EnsureAdjacency rejected a layout exactly at the budget: %v", err)
	}
	if got := len(tp.SensedBy(0)); got != 9 {
		t.Fatalf("SensedBy(0) has %d neighbours after materialisation, want 9", got)
	}
	// Already materialised: any budget now passes.
	if err := tp.EnsureAdjacency(1); err != nil {
		t.Fatalf("EnsureAdjacency re-check failed after materialisation: %v", err)
	}
}

// A provably complete layout over the budget is refused from its
// bounding box alone: no degree pass runs, so 100k stations answer at
// once instead of after 10¹⁰ candidate pairs.
func TestEnsureAdjacencyRefusesCompleteLayoutFast(t *testing.T) {
	tp := New(Point{}, CircleEdge(100_000, 8), PaperRadii())
	if err := tp.EnsureAdjacency(DefaultAdjacencyBudget); err == nil {
		t.Fatal("EnsureAdjacency accepted 100k fully connected stations")
	}
	if tp.senseDeg != nil {
		t.Fatal("the refusal counted degrees; want the O(n) bounding-box check")
	}
}

// TestScaleTierTopologies exercises the newly opened regime: topology
// construction at 100k stations must stay O(n·degree) — instant for the
// fully connected circle (bounding-box fast path, no adjacency ever
// materialised) and cheap for a sparse wide-area disc where the grid
// prunes nearly all candidate pairs.
func TestScaleTierTopologies(t *testing.T) {
	const n = 100_000
	// The slotted tier's topology: everyone on a radius-8 circle. The
	// bounding-box diagonal (16√2 < 24) proves full connectivity in O(n).
	conn := New(Point{}, CircleEdge(n, 8), PaperRadii())
	if !conn.FullyConnected() {
		t.Fatal("100k-station radius-8 circle must be fully connected")
	}
	if hp := conn.HiddenPairCount(); hp != 0 {
		t.Fatalf("fully connected circle reports %d hidden pairs", hp)
	}

	// A sparse regime the dense representation could never hold: 100k
	// stations over a 4 km disc (~37 sensed neighbours each on average).
	if testing.Short() {
		return
	}
	rng := sim.NewRNG(5)
	sparse := New(Point{}, UniformDisc(n, 2000, rng), PaperRadii())
	if sparse.FullyConnected() {
		t.Fatal("4 km disc cannot be fully connected")
	}
	if err := sparse.EnsureAdjacency(DefaultAdjacencyBudget); err != nil {
		t.Fatalf("sparse 100k adjacency over budget: %v", err)
	}
	var edges int64
	for i := 0; i < n; i++ {
		edges += int64(len(sparse.SensedBy(i)))
	}
	if edges == 0 {
		t.Fatal("sparse 100k topology has no sensed edges at all")
	}
	wantHidden := int64(n)*int64(n-1)/2 - edges/2
	if got := sparse.HiddenPairCount(); got != wantHidden {
		t.Fatalf("HiddenPairCount = %d, degree sum says %d", got, wantHidden)
	}
	// Spot-check list membership against the distance predicate.
	for _, i := range []int{0, 1, n / 2, n - 1} {
		for _, j32 := range sparse.SensedBy(i) {
			if !sparse.Senses(int(j32), i) {
				t.Fatalf("station %d lists %d but the distance predicate disagrees", i, j32)
			}
		}
	}
}
