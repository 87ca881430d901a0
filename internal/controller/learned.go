package controller

import (
	"math/rand"
	"time"

	"repro/internal/geom"
)

// Learned is the data-driven controller stand-in: a gain-scheduled policy
// whose gain table is indexed by a coarse discretisation of the state space.
// Most cells hold well-tuned gains; a configurable fraction are "corrupted"
// (mis-trained), where the policy commands under-damped or even destabilising
// actions. The corruption pattern is fixed at construction from the seed, so
// a given policy is deterministic — like a trained network with systematic
// blind spots — reproducing the Figure 5 (left) behaviour: most loops track
// the reference well (green), some deviate dangerously (red).
type Learned struct {
	limits   Limits
	cellSize float64
	badFrac  float64
	seed     int64
}

var _ Controller = (*Learned)(nil)

// NewLearned builds a learned-policy stand-in. badFraction is the fraction
// of state-space cells with corrupted gains, in [0, 1].
func NewLearned(l Limits, badFraction float64, seed int64) *Learned {
	if badFraction < 0 {
		badFraction = 0
	}
	if badFraction > 1 {
		badFraction = 1
	}
	return &Learned{
		limits:   l,
		cellSize: 4.0,
		badFrac:  badFraction,
		seed:     seed,
	}
}

// Control implements Controller.
func (c *Learned) Control(_ time.Duration, pos, vel, target geom.Vec3) geom.Vec3 {
	kp, kd := c.gains(pos)
	u := target.Sub(pos).Scale(kp).Sub(vel.Scale(kd))
	return c.limits.clampAccel(u)
}

// gains returns the scheduled gains for the state-space cell containing pos.
// The per-cell RNG is derived from the cell id and the policy seed, so the
// "training corruption" is a fixed function of the state.
func (c *Learned) gains(pos geom.Vec3) (kp, kd float64) {
	cx := int64(pos.X / c.cellSize)
	cy := int64(pos.Y / c.cellSize)
	cz := int64(pos.Z / c.cellSize)
	h := uint64(c.seed)
	for _, v := range [3]int64{cx, cy, cz} {
		h ^= uint64(v) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	}
	rng := rand.New(rand.NewSource(int64(h)))
	if rng.Float64() < c.badFrac {
		// Corrupted cell: hard acceleration with near-zero (sometimes
		// negative) damping — the policy "learned" the wrong response here.
		kp = 3.5 + rng.Float64()*2.0
		kd = -0.3 + rng.Float64()*0.5
		return kp, kd
	}
	// Well-trained cell: close to critically damped.
	kp = 1.4 + rng.Float64()*0.4
	kd = 2.2 + rng.Float64()*0.4
	return kp, kd
}
