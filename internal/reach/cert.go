package reach

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/geom"
)

// SCStepFunc advances the closed-loop plant under the safe controller by one
// SC period from the given kinematic state, returning the next state. It is
// supplied by the module author (the controller and plant live in other
// packages; the certificate only needs the closed-loop map).
type SCStepFunc func(pos, vel geom.Vec3) (geom.Vec3, geom.Vec3)

// CertConfig configures a sampling-based certificate for a motion RTA
// module.
type CertConfig struct {
	// Analyzer provides φsafe, φsafer and the reach boxes.
	Analyzer *Analyzer
	// SCStep is the closed-loop step under the safe controller.
	SCStep SCStepFunc
	// SCPeriod is δ(Nsc).
	SCPeriod time.Duration
	// Samples is the number of random initial states checked per property.
	Samples int
	// Seed makes the sampling reproducible.
	Seed int64
	// P2bDeadline is the finite time T within which (P2b) requires the
	// system to settle into φsafer (and stay for Δ).
	P2bDeadline time.Duration
}

// p2aHorizon is how long each (P2a) rollout runs.
const p2aHorizon = 20 * time.Second

// Certificate discharges (P2a), (P2b) and (P3) for a motion RTA module by a
// combination of construction arguments and rigorous sampling: φsafe and
// φsafer are built so that (P3) holds analytically (see StopBox), while
// (P2a) and (P2b) are validated by closed-loop rollouts of the safe
// controller from randomly sampled states, in the spirit of the paper's
// simulation-based validation. It satisfies rta.Certificate.
type Certificate struct {
	cfg CertConfig
}

// NewCertificate validates the configuration and returns the certificate.
func NewCertificate(cfg CertConfig) (*Certificate, error) {
	if cfg.Analyzer == nil {
		return nil, fmt.Errorf("nil analyzer")
	}
	if cfg.SCStep == nil {
		return nil, fmt.Errorf("nil SC step function")
	}
	if cfg.SCPeriod <= 0 || cfg.SCPeriod > cfg.Analyzer.Delta() {
		return nil, fmt.Errorf("SC period %v must be in (0, Δ=%v]", cfg.SCPeriod, cfg.Analyzer.Delta())
	}
	if cfg.Samples <= 0 {
		return nil, fmt.Errorf("samples %d must be positive", cfg.Samples)
	}
	if cfg.P2bDeadline <= 0 {
		cfg.P2bDeadline = 30 * time.Second
	}
	return &Certificate{cfg: cfg}, nil
}

// sampleSafeState draws a random kinematic state satisfying φsafe.
func (c *Certificate) sampleSafeState(rng *rand.Rand) (geom.Vec3, geom.Vec3, bool) {
	a := c.cfg.Analyzer
	bnd := a.Workspace().Bounds()
	size := bnd.Size()
	for tries := 0; tries < 4096; tries++ {
		pos := geom.V(
			bnd.Min.X+rng.Float64()*size.X,
			bnd.Min.Y+rng.Float64()*size.Y,
			bnd.Min.Z+rng.Float64()*size.Z,
		)
		vel := geom.V(
			(rng.Float64()*2-1)*a.Bounds().MaxVel,
			(rng.Float64()*2-1)*a.Bounds().MaxVel,
			(rng.Float64()*2-1)*a.Bounds().MaxVel,
		)
		if a.Safe(pos, vel) {
			return pos, vel, true
		}
	}
	return geom.Vec3{}, geom.Vec3{}, false
}

// CheckP2a verifies by rollout that φsafe is invariant under the safe
// controller: from sampled states in φsafe, every state along the SC
// closed loop remains in φsafe.
func (c *Certificate) CheckP2a() error {
	rng := rand.New(rand.NewSource(c.cfg.Seed))
	steps := int(p2aHorizon / c.cfg.SCPeriod)
	for i := 0; i < c.cfg.Samples; i++ {
		pos, vel, ok := c.sampleSafeState(rng)
		if !ok {
			return fmt.Errorf("could not sample a state in φsafe (workspace too constrained)")
		}
		p, v := pos, vel
		for s := 0; s < steps; s++ {
			p, v = c.cfg.SCStep(p, v)
			if !c.cfg.Analyzer.Safe(p, v) {
				return fmt.Errorf("sample %d: SC left φsafe after %d steps: start pos=%v vel=%v, at pos=%v vel=%v",
					i, s+1, pos, vel, p, v)
			}
		}
	}
	return nil
}

// CheckP2b verifies by rollout the liveness property: from sampled states in
// φsafe, the SC closed loop enters φsafer within the deadline and remains in
// φsafer for at least Δ.
func (c *Certificate) CheckP2b() error {
	rng := rand.New(rand.NewSource(c.cfg.Seed + 1))
	a := c.cfg.Analyzer
	maxSteps := int(c.cfg.P2bDeadline / c.cfg.SCPeriod)
	dwellSteps := int(a.Delta()/c.cfg.SCPeriod) + 1
	for i := 0; i < c.cfg.Samples; i++ {
		pos, vel, ok := c.sampleSafeState(rng)
		if !ok {
			return fmt.Errorf("could not sample a state in φsafe (workspace too constrained)")
		}
		p, v := pos, vel
		dwell := 0
		reached := false
		for s := 0; s < maxSteps; s++ {
			p, v = c.cfg.SCStep(p, v)
			if a.InSafer(p, v) {
				dwell++
				if dwell >= dwellSteps {
					reached = true
					break
				}
			} else {
				dwell = 0
			}
		}
		if !reached {
			return fmt.Errorf("sample %d: SC did not settle in φsafer within %v from pos=%v vel=%v",
				i, c.cfg.P2bDeadline, pos, vel)
		}
	}
	return nil
}

// CheckP3 verifies Reach(φsafer, *, 2Δ) ⊆ φsafe. By construction φsafer is
// the set of states whose StopBox over a horizon ≥ 2Δ is collision-free,
// which analytically implies (P3); this check additionally validates the
// construction by adversarial rollouts: from sampled φsafer states it
// applies random bang-bang (worst-case) controls for 2Δ and asserts φsafe
// along the way.
func (c *Certificate) CheckP3() error {
	a := c.cfg.Analyzer
	if a.SaferHorizon() < 2*a.Delta() {
		return fmt.Errorf("φsafer horizon %v < 2Δ = %v", a.SaferHorizon(), 2*a.Delta())
	}
	rng := rand.New(rand.NewSource(c.cfg.Seed + 2))
	const dt = 10 * time.Millisecond
	steps := int(2 * a.Delta() / dt)
	b := a.Bounds()
	for i := 0; i < c.cfg.Samples; i++ {
		pos, vel, ok := c.sampleSaferState(rng)
		if !ok {
			// φsafer can be empty in a pathological workspace; (P3) over an
			// empty set holds vacuously.
			return nil
		}
		p, v := pos, vel
		for s := 0; s < steps; s++ {
			// Adversarial bang control, re-drawn occasionally.
			acc := geom.V(bang(rng, b.MaxAccel), bang(rng, b.MaxAccel), bang(rng, b.MaxAccel))
			h := dt.Seconds()
			v = v.Add(acc.Scale(h)).ClampBox(
				geom.V(-b.MaxVel, -b.MaxVel, -b.MaxVel),
				geom.V(b.MaxVel, b.MaxVel, b.MaxVel),
			)
			p = p.Add(v.Scale(h))
			if !a.Safe(p, v) {
				return fmt.Errorf("sample %d: adversarial control escaped φsafe within 2Δ from φsafer state pos=%v vel=%v",
					i, pos, vel)
			}
		}
	}
	return nil
}

func (c *Certificate) sampleSaferState(rng *rand.Rand) (geom.Vec3, geom.Vec3, bool) {
	a := c.cfg.Analyzer
	bnd := a.Workspace().Bounds()
	size := bnd.Size()
	for tries := 0; tries < 8192; tries++ {
		pos := geom.V(
			bnd.Min.X+rng.Float64()*size.X,
			bnd.Min.Y+rng.Float64()*size.Y,
			bnd.Min.Z+rng.Float64()*size.Z,
		)
		vel := geom.V(
			(rng.Float64()*2-1)*a.Bounds().MaxVel,
			(rng.Float64()*2-1)*a.Bounds().MaxVel,
			(rng.Float64()*2-1)*a.Bounds().MaxVel,
		)
		if a.InSafer(pos, vel) {
			return pos, vel, true
		}
	}
	return geom.Vec3{}, geom.Vec3{}, false
}

func bang(rng *rand.Rand, amax float64) float64 {
	if rng.Intn(2) == 0 {
		return -amax
	}
	return amax
}

// StaticCertificate adapts three closures to the certificate interface; it
// is used for modules whose obligations have bespoke proofs (battery safety
// has closed-form arguments; the planner module's obligations are
// output-validation properties).
type StaticCertificate struct {
	P2a func() error
	P2b func() error
	P3  func() error
}

// CheckP2a implements rta.Certificate.
func (s StaticCertificate) CheckP2a() error {
	if s.P2a == nil {
		return nil
	}
	return s.P2a()
}

// CheckP2b implements rta.Certificate.
func (s StaticCertificate) CheckP2b() error {
	if s.P2b == nil {
		return nil
	}
	return s.P2b()
}

// CheckP3 implements rta.Certificate.
func (s StaticCertificate) CheckP3() error {
	if s.P3 == nil {
		return nil
	}
	return s.P3()
}
