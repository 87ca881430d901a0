package mission

import (
	"math"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/plan"
	"repro/internal/reach"
)

// artifactKey identifies the seed-independent artifacts a stack build
// derives from its workspace and safety parameters. Two configs with equal
// keys AND exactly equal geometry (the hash is only a filter; equality is
// re-checked on every hit) produce bit-identical analyzers, grids and
// planners, so they can share one set.
type artifactKey struct {
	geoHash     uint64
	margin      float64
	hysteresis  float64
	maxAccel    float64
	maxVel      float64
	brakeDecel  float64
	planMargin  float64
	motionDelta time.Duration
}

// artifacts bundles the shareable, immutable build products: the canonical
// workspace instance (so every mission hits the same per-margin index
// cache), the derived analysis/landing workspaces and analyzers, and the
// certified A* planner, which keeps no state between Plan calls (each call
// borrows its search scratch from plan's process-wide free list).
// Stateful or seed-dependent pieces — the RRT* planner, controllers, app
// node — are always built per mission.
type artifacts struct {
	ws              *geom.Workspace
	bounds          geom.AABB
	obstacles       []geom.AABB // snapshot for exact hit validation
	analyzer        *reach.Analyzer
	landingAnalyzer *reach.Analyzer
	astar           *plan.AStar // plan.NewAStar(ws, 1.0, planMargin)
}

// maxPooledArtifacts bounds the pool; sweeps use one geometry (or a
// handful), so a small LRU suffices and misconfigured churn stays bounded.
const maxPooledArtifacts = 8

type artifactPoolEntry struct {
	key     artifactKey
	arts    *artifacts
	lastUse uint64
}

// artifactPool is the process-wide cache consulted by Build. Sharing across
// concurrent fleet workers is safe: every pooled object is immutable or
// internally synchronized, and lookups are serialized on the mutex.
type artifactPool struct {
	mu      sync.Mutex
	clock   uint64
	entries []artifactPoolEntry
}

var sharedArtifacts artifactPool

// geometryHash fingerprints a workspace's bounds and obstacle set (FNV-1a
// over the raw float bits, deterministic across processes).
func geometryHash(ws *geom.Workspace) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v geom.Vec3) {
		for _, f := range [3]float64{v.X, v.Y, v.Z} {
			bits := math.Float64bits(f)
			for s := 0; s < 64; s += 8 {
				h ^= (bits >> s) & 0xff
				h *= prime64
			}
		}
	}
	b := ws.Bounds()
	mix(b.Min)
	mix(b.Max)
	for _, o := range ws.ObstaclesView() {
		mix(o.Min)
		mix(o.Max)
	}
	return h
}

func artifactKeyFor(cfg StackConfig) artifactKey {
	b := ReachBounds(cfg.PlantParams)
	return artifactKey{
		geoHash:     geometryHash(cfg.Workspace),
		margin:      cfg.Margin,
		hysteresis:  cfg.Hysteresis,
		maxAccel:    b.MaxAccel,
		maxVel:      b.MaxVel,
		brakeDecel:  b.BrakeDecel,
		planMargin:  cfg.PlanMargin,
		motionDelta: cfg.MotionDelta,
	}
}

// get returns pooled artifacts for the key when the stored geometry is
// exactly equal to ws's (guarding against hash collisions), or nil.
func (p *artifactPool) get(key artifactKey, ws *geom.Workspace) *artifacts {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.entries {
		e := &p.entries[i]
		if e.key != key {
			continue
		}
		if !sameGeometry(e.arts, ws) {
			continue
		}
		p.clock++
		e.lastUse = p.clock
		return e.arts
	}
	return nil
}

// put stores freshly built artifacts, evicting the least recently used entry
// past capacity. A racing insert of the same key is harmless — either entry
// answers identically.
func (p *artifactPool) put(key artifactKey, arts *artifacts) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.clock++
	for i := range p.entries {
		if p.entries[i].key == key && sameGeometry(p.entries[i].arts, arts.ws) {
			p.entries[i].lastUse = p.clock
			return
		}
	}
	if len(p.entries) < maxPooledArtifacts {
		p.entries = append(p.entries, artifactPoolEntry{key: key, arts: arts, lastUse: p.clock})
		return
	}
	oldest := 0
	for i := 1; i < len(p.entries); i++ {
		if p.entries[i].lastUse < p.entries[oldest].lastUse {
			oldest = i
		}
	}
	p.entries[oldest] = artifactPoolEntry{key: key, arts: arts, lastUse: p.clock}
}

func sameGeometry(a *artifacts, ws *geom.Workspace) bool {
	if a.bounds != ws.Bounds() {
		return false
	}
	obs := ws.ObstaclesView()
	if len(obs) != len(a.obstacles) {
		return false
	}
	for i := range obs {
		if obs[i] != a.obstacles[i] {
			return false
		}
	}
	return true
}

// buildArtifacts constructs cfg's shareable stack artifacts from scratch.
func buildArtifacts(cfg StackConfig) (*artifacts, error) {
	ws := cfg.Workspace
	analyzer, err := MotionAnalyzer(cfg)
	if err != nil {
		return nil, err
	}
	lws, err := landingWorkspace(ws)
	if err != nil {
		return nil, err
	}
	landingAnalyzer, err := analyzerOver(lws, cfg)
	if err != nil {
		return nil, err
	}
	astar, err := plan.NewAStar(ws, 1.0, cfg.PlanMargin)
	if err != nil {
		return nil, err
	}
	// The snapshot aliases the canonical workspace's storage: workspaces are
	// immutable after construction, and sameGeometry only reads it.
	return &artifacts{
		ws:              ws,
		bounds:          ws.Bounds(),
		obstacles:       ws.ObstaclesView(),
		analyzer:        analyzer,
		landingAnalyzer: landingAnalyzer,
		astar:           astar,
	}, nil
}
