// Package gen synthesizes the trajectory workload that substitutes for the
// paper's proprietary Singapore taxi dataset (465k trajectories, Jan 2011).
//
// The generator is built so that the statistical properties PRESS exploits
// are present and tunable:
//
//   - routes are shortest paths with occasional random detours (DetourProb),
//     matching the §3.1 assumption "objects tend to take the shortest path";
//   - origin/destination pairs are Zipf-skewed over a hotspot set, so some
//     edge sequences are far more popular than others, which is what makes
//     frequent-sub-trajectory mining effective (§3.2);
//   - vehicles idle at stops (StopProb/StopMeanDur), reproducing the ~10% of
//     samples the paper reports as stationary — the source of BTC's 1.1×
//     ratio at zero tolerance;
//   - GPS samples carry Gaussian noise and a configurable sampling rate,
//     the x-axis of Fig. 10(a).
package gen

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"press/internal/geo"
	"press/internal/roadnet"
	"press/internal/traj"
)

// CityOptions configures the synthetic road network.
type CityOptions struct {
	Rows, Cols     int     // lattice dimensions
	Spacing        float64 // meters between neighbouring intersections
	PosJitter      float64 // vertex position jitter as a fraction of Spacing
	RemoveEdgeProb float64 // probability of knocking out a (bidirectional) link
	Seed           int64
}

// DefaultCity returns the options used across the experiment suite: a city
// of about 15×15 blocks with irregular geometry.
func DefaultCity() CityOptions {
	return CityOptions{Rows: 15, Cols: 15, Spacing: 200, PosJitter: 0.2, RemoveEdgeProb: 0.08, Seed: 1}
}

// Scale returns a copy of the options covering factor× the area: both
// lattice dimensions grow by √factor, so the edge count grows by roughly
// factor while spacing, jitter, knockout probability and seed stay fixed.
// The factor must be a positive perfect square (1, 4, 16, …) so the scaled
// lattice is exact and deterministic — the perf ledger's network and the
// memory-regression tests rely on reproducing the same graph from
// (options, factor) alone.
func (o CityOptions) Scale(factor int) (CityOptions, error) {
	if factor <= 0 {
		return CityOptions{}, fmt.Errorf("gen: scale factor %d must be positive", factor)
	}
	side := int(math.Round(math.Sqrt(float64(factor))))
	if side*side != factor {
		return CityOptions{}, fmt.Errorf("gen: scale factor %d is not a perfect square", factor)
	}
	o.Rows *= side
	o.Cols *= side
	return o, nil
}

// City builds an irregular city network: a perturbed lattice with some links
// removed, kept strongly connected so every trip is routable.
func City(opt CityOptions) (*roadnet.Graph, error) {
	if opt.Rows < 2 || opt.Cols < 2 {
		return nil, errors.New("gen: city needs at least a 2x2 lattice")
	}
	if opt.Spacing <= 0 {
		return nil, errors.New("gen: spacing must be positive")
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	vertices := make([]roadnet.Vertex, 0, opt.Rows*opt.Cols)
	for r := 0; r < opt.Rows; r++ {
		for c := 0; c < opt.Cols; c++ {
			jx := (rng.Float64()*2 - 1) * opt.PosJitter * opt.Spacing
			jy := (rng.Float64()*2 - 1) * opt.PosJitter * opt.Spacing
			vertices = append(vertices, roadnet.Vertex{
				ID:  roadnet.VertexID(r*opt.Cols + c),
				Pos: geo.Point{X: float64(c)*opt.Spacing + jx, Y: float64(r)*opt.Spacing + jy},
			})
		}
	}
	type link struct{ a, b roadnet.VertexID }
	var links []link
	for r := 0; r < opt.Rows; r++ {
		for c := 0; c < opt.Cols; c++ {
			v := roadnet.VertexID(r*opt.Cols + c)
			if c+1 < opt.Cols {
				links = append(links, link{v, v + 1})
			}
			if r+1 < opt.Rows {
				links = append(links, link{v, roadnet.VertexID((r+1)*opt.Cols + c)})
			}
		}
	}
	// Tentatively remove links, keeping strong connectivity.
	alive := make([]bool, len(links))
	for i := range alive {
		alive[i] = true
	}
	adj := func() [][]roadnet.VertexID {
		out := make([][]roadnet.VertexID, len(vertices))
		for i, l := range links {
			if alive[i] {
				out[l.a] = append(out[l.a], l.b)
				out[l.b] = append(out[l.b], l.a)
			}
		}
		return out
	}
	connected := func() bool {
		a := adj()
		seen := make([]bool, len(vertices))
		stack := []roadnet.VertexID{0}
		seen[0] = true
		count := 1
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range a[v] {
				if !seen[w] {
					seen[w] = true
					count++
					stack = append(stack, w)
				}
			}
		}
		return count == len(vertices)
	}
	for i := range links {
		if rng.Float64() < opt.RemoveEdgeProb {
			alive[i] = false
			if !connected() {
				alive[i] = true
			}
		}
	}
	var edges []roadnet.Edge
	for i, l := range links {
		if !alive[i] {
			continue
		}
		edges = append(edges, roadnet.Edge{ID: roadnet.EdgeID(len(edges)), From: l.a, To: l.b})
		edges = append(edges, roadnet.Edge{ID: roadnet.EdgeID(len(edges)), From: l.b, To: l.a})
	}
	return roadnet.NewGraph(vertices, edges)
}

// TripOptions configures route generation.
type TripOptions struct {
	NumTrips   int
	Hotspots   int     // size of the popular-endpoint pool
	HotProb    float64 // probability an endpoint is drawn from the pool
	ZipfS      float64 // Zipf exponent over the pool (>1)
	DetourProb float64 // per-intersection probability of leaving the shortest path
	MinEdges   int     // trips shorter than this are re-drawn
	Legs       int     // legs per trip: a taxi shift chains several fares (default 1)
	Seed       int64
}

// DefaultTrips mirrors a taxi fleet: heavy hotspot skew, mostly-shortest
// routes, a few chained fares per trajectory (real taxi trajectories span
// hours, not single hops).
func DefaultTrips(n int) TripOptions {
	return TripOptions{NumTrips: n, Hotspots: 12, HotProb: 0.8, ZipfS: 1.5, DetourProb: 0.08, MinEdges: 4, Legs: 3, Seed: 2}
}

// Trips generates routed trips over g. Each trip is a connected edge path
// from a random origin to a random destination that mostly follows shortest
// paths, with occasional detours that immediately re-route optimally.
func Trips(g *roadnet.Graph, opt TripOptions) ([]traj.Path, error) {
	if opt.NumTrips <= 0 {
		return nil, errors.New("gen: NumTrips must be positive")
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	nv := g.NumVertices()
	hot := make([]roadnet.VertexID, opt.Hotspots)
	for i := range hot {
		hot[i] = roadnet.VertexID(rng.Intn(nv))
	}
	var zipf *rand.Zipf
	if opt.Hotspots > 0 {
		zipf = rand.NewZipf(rng, math.Max(opt.ZipfS, 1.01), 1, uint64(opt.Hotspots-1))
	}
	pick := func() roadnet.VertexID {
		if zipf != nil && rng.Float64() < opt.HotProb {
			return hot[zipf.Uint64()]
		}
		return roadnet.VertexID(rng.Intn(nv))
	}
	// distTo[d] caches the reverse-Dijkstra cost field toward destination d.
	distTo := make(map[roadnet.VertexID][]float64)
	costField := func(dst roadnet.VertexID) []float64 {
		if f, ok := distTo[dst]; ok {
			return f
		}
		f := reverseDijkstra(g, dst)
		distTo[dst] = f
		return f
	}
	legs := opt.Legs
	if legs < 1 {
		legs = 1
	}
	trips := make([]traj.Path, 0, opt.NumTrips)
	for len(trips) < opt.NumTrips {
		var full traj.Path
		cur := pick()
		ok := true
		for l := 0; l < legs; l++ {
			d := pick()
			if d == cur {
				l--
				continue
			}
			leg := route(g, rng, cur, d, costField(d), opt.DetourProb)
			if leg == nil {
				ok = false
				break
			}
			full = append(full, leg...)
			cur = d
		}
		if !ok || len(full) < opt.MinEdges {
			continue
		}
		trips = append(trips, full)
	}
	return trips, nil
}

// reverseDijkstra returns per-vertex cost to reach dst.
func reverseDijkstra(g *roadnet.Graph, dst roadnet.VertexID) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[dst] = 0
	// Simple heap-free Dijkstra is fine at city scale; use a slice-heap to
	// keep it O(E log V) anyway.
	type item struct {
		v roadnet.VertexID
		d float64
	}
	queue := []item{{dst, 0}}
	pop := func() item {
		best := 0
		for i := range queue {
			if queue[i].d < queue[best].d {
				best = i
			}
		}
		it := queue[best]
		queue = append(queue[:best], queue[best+1:]...)
		return it
	}
	for len(queue) > 0 {
		it := pop()
		if done[it.v] {
			continue
		}
		done[it.v] = true
		for _, eid := range g.In(it.v) {
			e := g.Edge(eid)
			if nd := it.d + e.Weight; nd < dist[e.From] {
				dist[e.From] = nd
				queue = append(queue, item{e.From, nd})
			}
		}
	}
	return dist
}

// route walks from o to d descending the cost field, with detours.
func route(g *roadnet.Graph, rng *rand.Rand, o, d roadnet.VertexID, dist []float64, detourProb float64) traj.Path {
	if math.IsInf(dist[o], 1) {
		return nil
	}
	var path traj.Path
	cur := o
	var prevEdge roadnet.EdgeID = roadnet.NoEdge
	guard := 20 * (len(dist) + 1)
	for cur != d && guard > 0 {
		guard--
		outs := g.Out(cur)
		// Optimal next hop: minimize w(e) + dist[e.To], tie-break edge id.
		best := roadnet.NoEdge
		bestCost := math.Inf(1)
		var viable []roadnet.EdgeID
		for _, eid := range outs {
			e := g.Edge(eid)
			if math.IsInf(dist[e.To], 1) {
				continue
			}
			// Avoid immediate U-turns on detours.
			if prevEdge != roadnet.NoEdge && e.To == g.Edge(prevEdge).From {
				continue
			}
			viable = append(viable, eid)
			if c := e.Weight + dist[e.To]; c < bestCost || (c == bestCost && eid < best) {
				bestCost = c
				best = eid
			}
		}
		if best == roadnet.NoEdge {
			// Dead-ended by the U-turn rule: allow the U-turn.
			for _, eid := range outs {
				if !math.IsInf(dist[g.Edge(eid).To], 1) {
					best = eid
					break
				}
			}
			if best == roadnet.NoEdge {
				return nil
			}
			viable = []roadnet.EdgeID{best}
		}
		chosen := best
		if len(viable) > 1 && rng.Float64() < detourProb {
			// Detour: pick any viable non-optimal edge.
			for tries := 0; tries < 4; tries++ {
				c := viable[rng.Intn(len(viable))]
				if c != best {
					chosen = c
					break
				}
			}
		}
		path = append(path, chosen)
		prevEdge = chosen
		cur = g.Edge(chosen).To
	}
	if cur != d {
		return nil
	}
	return path
}

// GPSOptions configures the vehicle simulator and GPS sampler.
type GPSOptions struct {
	SampleInterval float64 // seconds between GPS fixes
	NoiseSigma     float64 // meters of Gaussian position noise
	SpeedMean      float64 // m/s
	SpeedJitter    float64 // relative speed variation per tick
	StopProb       float64 // per-second probability of starting a stop
	StopMeanDur    float64 // mean stop duration, seconds
	Seed           int64
}

// DefaultGPS approximates the paper's taxi feed: 30 s median sampling,
// urban speeds, regular stops.
func DefaultGPS() GPSOptions {
	return GPSOptions{SampleInterval: 30, NoiseSigma: 10, SpeedMean: 11, SpeedJitter: 0.3, StopProb: 0.01, StopMeanDur: 45, Seed: 3}
}

// Drive simulates a vehicle along path and returns the noisy GPS samples
// plus the ground-truth trajectory (exact (d, t) at each sample instant) for
// experiments that bypass map matching.
func Drive(g *roadnet.Graph, path traj.Path, opt GPSOptions, rng *rand.Rand) (traj.Raw, *traj.Trajectory, error) {
	if len(path) == 0 {
		return nil, nil, errors.New("gen: empty path")
	}
	if opt.SampleInterval <= 0 {
		return nil, nil, fmt.Errorf("gen: bad sample interval %v", opt.SampleInterval)
	}
	pl := g.PathPolyline([]roadnet.EdgeID(path))
	total := g.PathLength([]roadnet.EdgeID(path))

	var (
		raw    traj.Raw
		truth  traj.Temporal
		d      float64
		tm     float64
		speed  = opt.SpeedMean
		stopT  float64 // remaining stop time
		sample = 0.0   // time of next GPS fix
	)
	emit := func() {
		pos := pl.At(d)
		noisy := geo.Point{
			X: pos.X + rng.NormFloat64()*opt.NoiseSigma,
			Y: pos.Y + rng.NormFloat64()*opt.NoiseSigma,
		}
		raw = append(raw, traj.RawPoint{Pos: noisy, T: tm})
		truth = append(truth, traj.Entry{D: d, T: tm})
		sample += opt.SampleInterval
	}
	emit()
	const tick = 1.0
	guard := int(total/math.Max(opt.SpeedMean, 1)*20) + 10000
	for d < total && guard > 0 {
		guard--
		if stopT > 0 {
			stopT -= tick
		} else {
			if rng.Float64() < opt.StopProb*tick {
				stopT = rng.ExpFloat64() * opt.StopMeanDur
			} else {
				speed += rng.NormFloat64() * opt.SpeedJitter * opt.SpeedMean
				lo, hi := opt.SpeedMean*0.3, opt.SpeedMean*1.7
				if speed < lo {
					speed = lo
				}
				if speed > hi {
					speed = hi
				}
				d += speed * tick
				if d > total {
					d = total
				}
			}
		}
		tm += tick
		if tm >= sample-1e-9 {
			emit()
		}
	}
	if truth[len(truth)-1].D < total {
		tm += tick
		d = total
		emit()
	}
	return raw, &traj.Trajectory{Path: path, Temporal: truth}, nil
}

// Dataset bundles a generated workload.
type Dataset struct {
	Graph *roadnet.Graph
	Trips []traj.Path        // routed ground-truth edge paths
	Raws  []traj.Raw         // noisy GPS streams
	Truth []*traj.Trajectory // exact re-formatted trajectories
}

// Options aggregates all generator knobs.
type Options struct {
	City  CityOptions
	Trips TripOptions
	GPS   GPSOptions
}

// Default returns the standard experiment workload configuration with n
// trips.
func Default(n int) Options {
	return Options{City: DefaultCity(), Trips: DefaultTrips(n), GPS: DefaultGPS()}
}

// Generate builds the full dataset.
func Generate(opt Options) (*Dataset, error) {
	g, err := City(opt.City)
	if err != nil {
		return nil, err
	}
	trips, err := Trips(g, opt.Trips)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.GPS.Seed))
	ds := &Dataset{Graph: g, Trips: trips}
	for _, p := range trips {
		raw, truth, err := Drive(g, p, opt.GPS, rng)
		if err != nil {
			return nil, err
		}
		ds.Raws = append(ds.Raws, raw)
		ds.Truth = append(ds.Truth, truth)
	}
	return ds, nil
}

// RawSizeBytes is the storage cost of the raw GPS dataset.
func (ds *Dataset) RawSizeBytes() int {
	var sum int
	for _, r := range ds.Raws {
		sum += r.SizeBytes()
	}
	return sum
}
