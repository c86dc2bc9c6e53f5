package main

import (
	"fmt"
	"math/rand"
	"time"

	"press/internal/gen"
	"press/internal/geo"
	"press/internal/roadnet"
	"press/internal/traj"
	"press/internal/wire"
)

// trip is one routed drive with everything the workloads and the oracle
// need from it. Times start at 0; a session places it in the fleet's
// timeline by adding a shift.
type trip struct {
	truth   *traj.Trajectory // exact path and (d, t) at every GPS instant
	raw     traj.Raw         // noisy GPS fixes (batch_gps only)
	obs     []wire.Obs       // truth in live replay order: edge, sample, edge, ...
	mbr     geo.MBR          // of the path geometry
	whenPts []whenPoint      // midpoints of edges the path crosses exactly once
}

// whenPoint is a whenat query location with its distance along the path.
type whenPoint struct {
	p geo.Point
	d float64
}

func (tp *trip) duration() float64 { return tp.truth.Temporal.Duration() }

// session is one stored trajectory: vehicle id, which trip it drives and
// when. Replicas of a trip differ in id and shift only.
type session struct {
	id    uint64
	trip  int32
	shift float64 // seconds added to every timestamp of the trip
}

// inputs is everything generated from the seed before the program under
// test sees anything.
type inputs struct {
	g        *roadnet.Graph
	training []traj.Path
	trips    []trip
	genS     float64 // wall time the benchmark spent generating (not set-up)
}

// maxWhenPts bounds the whenat query points kept per trip.
const maxWhenPts = 8

// generate builds the inputs of one run. The road network, the training
// corpus and the routes driven, the pool's first n, are part of the fixed
// configuration: they are the city and where its traffic goes, the same for
// every seed, so that runs with different seeds are the same workload drawn
// again rather than different workloads. (A record costs what its route's
// length and shape make it cost: with the seed choosing the routes, two
// seeds' fleets differed by 24 % in mean decode time.) The seed picks the
// order the routes are driven in and how each drive goes (speeds, stops, GPS
// noise).
func generate(seed int64, n int, withRaw bool) (*inputs, error) {
	t0 := time.Now()
	if n > tripPool {
		return nil, fmt.Errorf("%d trips wanted, the pool holds %d", n, tripPool)
	}
	city, err := gen.DefaultCity().Scale(cityScale)
	if err != nil {
		return nil, err
	}
	g, err := gen.City(city)
	if err != nil {
		return nil, err
	}
	trainOpt := gen.DefaultTrips(trainTrips)
	trainOpt.Seed = 7
	training, err := gen.Trips(g, trainOpt)
	if err != nil {
		return nil, err
	}
	pool, err := gen.Trips(g, gen.DefaultTrips(tripPool))
	if err != nil {
		return nil, err
	}
	paths := make([]traj.Path, n)
	for i, k := range rand.New(rand.NewSource(seed*7919 + 2)).Perm(n) {
		paths[i] = pool[k]
	}
	in := &inputs{g: g, training: training, trips: make([]trip, n)}
	rng := rand.New(rand.NewSource(seed*7919 + 3))
	gps := gen.DefaultGPS()
	for i, p := range paths {
		raw, truth, err := gen.Drive(g, p, gps, rng)
		if err != nil {
			return nil, fmt.Errorf("trip %d: %w", i, err)
		}
		tp := &in.trips[i]
		tp.truth = truth
		if withRaw {
			tp.raw = raw
		}
		tp.mbr = g.PathPolyline([]roadnet.EdgeID(p)).MBR()
		tp.whenPts = uniqueEdgeMidpoints(g, p)
		_ = truth.Replay(
			func(e roadnet.EdgeID) error { tp.obs = append(tp.obs, wire.Obs{Edge: e}); return nil },
			func(s traj.Entry) error {
				tp.obs = append(tp.obs, wire.Obs{Edge: roadnet.NoEdge, Sample: s, HasSample: true})
				return nil
			},
		)
	}
	in.genS = time.Since(t0).Seconds()
	return in, nil
}

// uniqueEdgeMidpoints returns midpoints of edges whose road segment the
// path uses exactly once in either direction. A whenat query at such a
// point has one closest place on the path, so the program and the oracle
// cannot legitimately disagree about which visit is meant.
func uniqueEdgeMidpoints(g *roadnet.Graph, p traj.Path) []whenPoint {
	type road struct{ a, b roadnet.VertexID }
	key := func(e *roadnet.Edge) road {
		if e.From < e.To {
			return road{e.From, e.To}
		}
		return road{e.To, e.From}
	}
	uses := make(map[road]int, len(p))
	for _, id := range p {
		uses[key(g.Edge(id))]++
	}
	var once []whenPoint
	var prefix float64
	for _, id := range p {
		e := g.Edge(id)
		if uses[key(e)] == 1 {
			half := e.Geometry.Length() / 2
			once = append(once, whenPoint{p: e.Geometry.At(half), d: prefix + half})
		}
		prefix += e.Weight
	}
	if len(once) <= maxWhenPts {
		return once
	}
	pts := make([]whenPoint, 0, maxWhenPts)
	for k := 0; k < maxWhenPts; k++ {
		pts = append(pts, once[k*len(once)/maxWhenPts])
	}
	return pts
}

// replicate lays count sessions over the distinct trips: session i drives
// trip i mod len(trips) in epoch firstEpoch + i/perEpoch, under the id
// idOf(i).
func (in *inputs) replicate(count, firstEpoch, perEpoch int, idOf func(i int) uint64) []session {
	out := make([]session, count)
	for i := range out {
		out[i] = session{
			id:    idOf(i),
			trip:  int32(i % len(in.trips)),
			shift: float64(firstEpoch+i/perEpoch) * epochSeconds,
		}
	}
	return out
}

// encodeSession appends one vehicle group holding obs[lo:hi] of the
// session's trip, shifted into the session's epoch.
func (in *inputs) encodeSession(enc *wire.Encoder, s session, lo, hi int, flush bool) {
	enc.StartGroup(s.id, flush)
	for _, o := range in.trips[s.trip].obs[lo:hi] {
		if o.HasSample {
			o.Sample.T += s.shift
		}
		enc.Obs(o)
	}
}

// rawBytes is the paper's §6 cost of an uncompressed trajectory: 4 bytes
// per edge id plus 16 per (d, t) tuple.
func (in *inputs) rawBytes(s session) int { return in.trips[s.trip].truth.SizeBytes() }

// window is one fleet-range query: which vehicles crossed box during
// [t1, t2]?
type window struct {
	t1, t2 float64
	box    geo.MBR
}

// windowPool draws n fleet-range windows over the epochs the sessions
// occupy. Half-widths are fixed so that a window returns roughly 0.1–1% of
// a multi-epoch fleet (README.md gives the measured share).
func (in *inputs) windowPool(seed int64, n int, sessions []session) []window {
	const (
		halfSeconds = 240.0
		halfMeters  = 350.0
		tripSpan    = 1200.0 // most trips are under way in the first 20 minutes of their epoch
	)
	rng := rand.New(rand.NewSource(seed*7919 + 4))
	net := in.g.MBR()
	out := make([]window, n)
	for i := range out {
		s := sessions[rng.Intn(len(sessions))]
		ct := s.shift + rng.Float64()*tripSpan
		cx := net.MinX + rng.Float64()*(net.MaxX-net.MinX)
		cy := net.MinY + rng.Float64()*(net.MaxY-net.MinY)
		out[i] = window{
			t1:  ct - halfSeconds,
			t2:  ct + halfSeconds,
			box: geo.NewMBR(geo.Point{X: cx - halfMeters, Y: cy - halfMeters}, geo.Point{X: cx + halfMeters, Y: cy + halfMeters}),
		}
	}
	return out
}
