// Package topo models WLAN geometry: node placement around an access point
// and the unit-disc connectivity that determines which stations can sense
// or decode each other's transmissions.
//
// The paper configures ns-3 so that transmissions are decodable within
// 16 m and carrier-sensable within 24 m (Table I). Two stations farther
// than the sensing radius apart are hidden from each other. This package
// reproduces exactly that geometry: connectivity is a pure function of
// pairwise distance and the two radii.
package topo

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/sim"
)

// Point is a 2-D position in metres. The access point sits at the origin
// by convention.
type Point struct {
	X, Y float64
}

// Distance returns the Euclidean distance between p and q.
func (p Point) Distance(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Radii groups the two disc radii of the PHY model.
type Radii struct {
	// Transmission is the maximum distance at which a frame can be
	// decoded (16 m for the paper's ns-3 configuration).
	Transmission float64
	// Sensing is the maximum distance at which a transmission raises
	// carrier sense (24 m in the paper).
	Sensing float64
}

// PaperRadii returns the radii used throughout the paper's evaluation.
func PaperRadii() Radii { return Radii{Transmission: 16, Sensing: 24} }

// RimInset is how far inside the transmission radius rim-projected
// stations land. Projection targets Rim() = Transmission − RimInset
// rather than the transmission radius itself so float rounding in the
// scale factor can never push a projected station past the decode
// boundary and break AP connectivity.
const RimInset = 0.001

// Rim returns the radius stations are projected to when a random draw
// places them beyond the transmission radius: just inside it, so every
// projected station keeps AP connectivity (the paper's Fig. 6–7
// construction). For the paper's radii this is exactly 15.999 m.
func (r Radii) Rim() float64 { return r.Transmission - RimInset }

// ClampToRim projects, in place, every point farther from the origin
// (the AP) than the transmission radius onto Rim(). Points inside the
// radius are untouched, so clamping is idempotent.
func ClampToRim(pts []Point, r Radii) {
	rim := r.Rim()
	for i, p := range pts {
		if d := p.Distance(Point{}); d > r.Transmission {
			scale := rim / d
			pts[i] = Point{X: p.X * scale, Y: p.Y * scale}
		}
	}
}

// Topology is an immutable snapshot of station positions plus the derived
// sensing/decoding sets. Station indices run 0..N-1; the access point is a
// separate entity at AP.
//
// Connectivity is a pure function of pairwise distance and the two radii,
// and is represented sparsely: pair queries (Senses, Decodes) are O(1)
// distance predicates, while set queries (SensedBy, degrees, hidden-pair
// counts) are served by a spatial grid index built in New — O(n) — plus
// per-station sorted neighbour lists materialised lazily in
// O(n·avg-degree) time and memory. Nothing ever allocates an n×n matrix,
// which is what lets the scale tier lift station counts to 100k where
// the dense representation capped out at 512.
type Topology struct {
	AP       Point
	Stations []Point
	Radii    Radii

	grid grid // spatial index over Stations, cell size ≥ Radii.Sensing

	// Lazily derived adjacency, guarded by mu so a Topology stays safe
	// for concurrent readers exactly as the dense matrices were.
	mu         sync.Mutex
	senseDeg   []int32 // sensed-neighbour count per station (excludes self)
	senseEdges int64   // sum over senseDeg (each unordered pair counts twice)
	senseOff   []int64 // CSR offsets into senseAdj, len n+1; nil until materialised
	senseAdj   []int32 // ascending neighbour ids per station
}

// DefaultAdjacencyBudget bounds materialised neighbour-list entries
// (int32 ids, so ~512 MB at the cap). The paper's AP-bounded geometry —
// every station within 16 m of the AP, sensing radius 24 m — is nearly
// complete, so explicit adjacency is inherently Θ(n²) there and this
// budget is what keeps a dense large-n request a clean error instead of
// an OOM. Sparse layouts (big worlds, small radii) and the slotted
// fully-connected tier, which never materialises adjacency, scale to
// MaxStations unhindered.
const DefaultAdjacencyBudget = 128 << 20

// New builds a topology and its spatial grid index. It runs in O(n) time
// and memory; connectivity derivations are computed on first use.
func New(ap Point, stations []Point, r Radii) *Topology {
	if r.Transmission <= 0 || r.Sensing <= 0 {
		panic(fmt.Sprintf("topo: non-positive radii %+v", r))
	}
	t := &Topology{
		AP:       ap,
		Stations: append([]Point(nil), stations...),
		Radii:    r,
	}
	t.grid.build(t.Stations, r.Sensing)
	return t
}

// N returns the number of stations (excluding the AP).
func (t *Topology) N() int { return len(t.Stations) }

// Senses reports whether station i performs carrier sense on station j's
// transmissions. A station trivially "senses" itself; it is never hidden
// from itself (the paper assumes t ∈ T_t).
func (t *Topology) Senses(i, j int) bool {
	if i == j {
		_ = t.Stations[i] // keep the historical bounds panic
		return true
	}
	return t.Stations[i].Distance(t.Stations[j]) <= t.Radii.Sensing
}

// Decodes reports whether station i can decode frames sent by station j.
func (t *Topology) Decodes(i, j int) bool {
	if i == j {
		_ = t.Stations[i] // keep the historical bounds panic
		return true
	}
	return t.Stations[i].Distance(t.Stations[j]) <= t.Radii.Transmission
}

// StationHearsAP reports whether station i can decode AP transmissions.
// The paper assumes all stations receive all AP transmissions; this method
// verifies the geometric claim for a concrete layout.
func (t *Topology) StationHearsAP(i int) bool {
	return t.Stations[i].Distance(t.AP) <= t.Radii.Transmission
}

// StationSensesAP reports whether station i senses AP transmissions.
func (t *Topology) StationSensesAP(i int) bool {
	return t.Stations[i].Distance(t.AP) <= t.Radii.Sensing
}

// APDecodes reports whether the AP can decode station i. In the paper all
// stations lie within the transmission radius of the AP.
func (t *Topology) APDecodes(i int) bool {
	return t.Stations[i].Distance(t.AP) <= t.Radii.Transmission
}

// EnsureAdjacency materialises the per-station sensed-neighbour lists if
// they are not already built. maxEntries bounds the total list entries
// (≤ 0 means unbounded): a topology whose sensed-edge count exceeds the
// budget returns an error before allocating, so a dense large-n layout
// degrades into a diagnosable refusal instead of an OOM. Engines that
// need explicit adjacency (eventsim) call this with
// DefaultAdjacencyBudget at configuration time.
func (t *Topology) EnsureAdjacency(maxEntries int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.senseOff != nil {
		return nil
	}
	n := len(t.Stations)
	// A provably complete layout needs n(n−1) entries: refuse it in O(n)
	// from the bounding box instead of counting Θ(n²) candidate pairs.
	if maxEntries > 0 && t.allWithinSensing() {
		if need := int64(n) * int64(n-1); need > maxEntries {
			return overBudget(n, need, maxEntries)
		}
	}
	t.ensureDegreesLocked()
	if maxEntries > 0 && t.senseEdges > maxEntries {
		return overBudget(n, t.senseEdges, maxEntries)
	}
	off := make([]int64, n+1)
	for i, d := range t.senseDeg {
		off[i+1] = off[i] + int64(d)
	}
	adj := make([]int32, t.senseEdges)
	cursor := make([]int64, n)
	// Visiting transmitters j in ascending order and appending j to every
	// sensing neighbour's list fills each list already sorted — the exact
	// ascending order the dense SensedBy scan produced.
	for j := range t.Stations {
		pj := t.Stations[j]
		t.grid.forNear(pj, func(i32 int32) {
			i := int(i32)
			if i != j && t.Stations[i].Distance(pj) <= t.Radii.Sensing {
				adj[off[i]+cursor[i]] = int32(j)
				cursor[i]++
			}
		})
	}
	t.senseOff, t.senseAdj = off, adj
	return nil
}

func overBudget(n int, need, maxEntries int64) error {
	return fmt.Errorf("topo: neighbour lists for %d stations need %d entries, over the %d-entry budget (the layout is too dense for explicit adjacency at this scale)",
		n, need, maxEntries)
}

// ensureDegreesLocked computes per-station sensed degrees via the grid
// index: O(n·avg-degree) time, O(n) memory. Caller holds t.mu.
func (t *Topology) ensureDegreesLocked() {
	if t.senseDeg != nil {
		return
	}
	n := len(t.Stations)
	deg := make([]int32, n)
	edges := int64(0)
	for j := range t.Stations {
		pj := t.Stations[j]
		t.grid.forNear(pj, func(i32 int32) {
			i := int(i32)
			if i != j && t.Stations[i].Distance(pj) <= t.Radii.Sensing {
				deg[i]++
				edges++
			}
		})
	}
	t.senseDeg = deg
	t.senseEdges = edges
}

// SensedBy returns the indices of stations that sense station i
// (excluding i itself), ascending. The slice is a view into the
// topology's shared neighbour storage — callers must treat it as
// read-only — so repeated calls allocate nothing (the alloc guardrail
// pins this). The first call materialises the adjacency without a
// budget; engines that must bound memory call EnsureAdjacency first.
func (t *Topology) SensedBy(i int) []int32 {
	_ = t.EnsureAdjacency(0) // cannot fail unbounded
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.senseAdj[t.senseOff[i]:t.senseOff[i+1]:t.senseOff[i+1]]
}

// HiddenPairs returns all unordered station pairs {i, j} that cannot sense
// each other, in (i ascending, j ascending) order. The count of such pairs
// is the paper's measure of "how hidden" a topology is. Enumeration is
// inherently O(n²) in the worst case; at scale, prefer HiddenPairCount.
func (t *Topology) HiddenPairs() [][2]int {
	if t.allWithinSensing() {
		return nil
	}
	var pairs [][2]int
	for i := 0; i < t.N(); i++ {
		pi := t.Stations[i]
		for j := i + 1; j < t.N(); j++ {
			if !(pi.Distance(t.Stations[j]) <= t.Radii.Sensing) {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	return pairs
}

// HiddenPairCount returns the number of unordered hidden pairs without
// enumerating them: the pair total minus half the sensed-edge count from
// the grid-indexed degree pass. Fully bounded layouts short-circuit to
// zero via the bounding box, so the slotted tier's connected topologies
// answer in O(1) even at 100k stations.
func (t *Topology) HiddenPairCount() int64 {
	n := int64(t.N())
	if n < 2 || t.allWithinSensing() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ensureDegreesLocked()
	return n*(n-1)/2 - t.senseEdges/2
}

// FullyConnected reports whether every station senses every other station,
// i.e. the network has no hidden pairs.
func (t *Topology) FullyConnected() bool {
	n := t.N()
	if n <= 1 || t.allWithinSensing() {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ensureDegreesLocked()
	return t.senseEdges == int64(n)*int64(n-1)
}

// allWithinSensing reports whether the station bounding box alone proves
// every pairwise distance is within the sensing radius — the fast path
// that keeps connectivity checks O(n) for the fully-connected layouts
// the slotted engine requires (e.g. the paper's radius-8 circle, whose
// bounding-box diagonal 16√2 ≈ 22.6 m is inside the 24 m radius).
func (t *Topology) allWithinSensing() bool {
	if len(t.Stations) == 0 {
		return true
	}
	return math.Hypot(t.grid.w, t.grid.h) <= t.Radii.Sensing
}

// Validate checks the standing assumptions of the paper's system model:
// every station must be decodable by the AP (uplink works) and must decode
// the AP (ACKs and control broadcasts work). It returns a descriptive error
// for the first violated assumption.
func (t *Topology) Validate() error {
	for i := range t.Stations {
		if !t.APDecodes(i) {
			return fmt.Errorf("topo: station %d at distance %.2f m exceeds AP transmission radius %.2f m",
				i, t.Stations[i].Distance(t.AP), t.Radii.Transmission)
		}
		if !t.StationHearsAP(i) {
			return fmt.Errorf("topo: station %d cannot decode the AP", i)
		}
	}
	return nil
}

// CircleEdge places n stations evenly on the circle of the given radius
// centred on the AP at the origin. With radius 8 and the paper's radii
// every pairwise distance is ≤ 16 < 24, so the network is fully connected.
func CircleEdge(n int, radius float64) []Point {
	pts := make([]Point, n)
	for i := 0; i < n; i++ {
		theta := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = Point{X: radius * math.Cos(theta), Y: radius * math.Sin(theta)}
	}
	return pts
}

// UniformDisc places n stations uniformly at random in the disc of the
// given radius centred on the AP. With radius 16 or 20 and sensing radius
// 24, hidden pairs occur with non-zero probability — the paper's hidden
// node construction.
func UniformDisc(n int, radius float64, rng *sim.RNG) []Point {
	pts := make([]Point, n)
	for i := 0; i < n; i++ {
		// Uniform area density: r = R·sqrt(U).
		r := radius * math.Sqrt(rng.Float64())
		theta := 2 * math.Pi * rng.Float64()
		pts[i] = Point{X: r * math.Cos(theta), Y: r * math.Sin(theta)}
	}
	return pts
}

// TwoClusters places two groups of n/2 stations in small clusters on
// opposite sides of the AP, separation apart. With separation larger than
// the sensing radius this yields a deterministic, maximally hidden
// topology: every cross-cluster pair is hidden. Useful for repeatable
// hidden-node tests.
func TwoClusters(n int, separation float64) []Point {
	pts := make([]Point, n)
	half := separation / 2
	for i := 0; i < n; i++ {
		// Spread cluster members slightly so positions are distinct.
		off := 0.1 * float64(i/2)
		if i%2 == 0 {
			pts[i] = Point{X: -half, Y: off}
		} else {
			pts[i] = Point{X: half, Y: off}
		}
	}
	return pts
}
