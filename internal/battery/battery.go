// Package battery implements the battery-safety RTA components of
// Section V-B. The module's state is the drone state augmented with the
// battery charge bt; the safety property is φbat: the drone must never crash
// because of low battery — φsafe := bt > 0, φsafer := bt > 85% (the paper's
// threshold). The switching condition is
//
//	ttf2Δ(bt, φsafe) = bt − cost* < Tmax
//
// where Tmax is the maximum battery charge required to land (conservatively,
// from the maximum attainable height) and cost* = max_u cost(u, 2Δ) is the
// maximum discharge over 2Δ across all controls. The φsafer threshold, the
// lander's guaranteed descent rate (1 m/s) and Tmax's safety factor (2) are
// fixed; Config carries what varies between stacks.
package battery

import (
	"fmt"
	"time"

	"repro/internal/plant"
)

// The monitor's fixed parameters, as in the paper's setup.
const (
	// saferThreshold is the φsafer charge fraction.
	saferThreshold = 0.85
	// descentRate is the guaranteed descent speed (m/s) of the landing safe
	// controller, used to bound the landing duration.
	descentRate = 1.0
	// safetyFactor multiplies the landing budget Tmax.
	safetyFactor = 2.0
)

// Monitor evaluates the battery-safety predicates.
type Monitor struct {
	delta time.Duration
	// tmax is the precomputed maximum landing budget Tmax.
	tmax float64
	// costStar is the precomputed cost* = max_u cost(u, 2Δ).
	costStar float64
}

// Config parameterises the monitor by what varies between stacks: the
// plant, the DM period and the workspace ceiling. The φsafer threshold, the
// lander's descent rate and Tmax's safety factor are fixed.
type Config struct {
	Params plant.Params
	Delta  time.Duration // Δ of the battery DM (larger than motion Δ)
	// MaxHeight is the highest altitude the drone can attain (the workspace
	// ceiling, in metres); Tmax is computed for landing from this height,
	// which is conservative but computable offline, exactly as in the paper.
	MaxHeight float64
}

// NewMonitor precomputes Tmax and cost* for the configuration.
func NewMonitor(cfg Config) (*Monitor, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("battery monitor: %w", err)
	}
	if cfg.Delta <= 0 {
		return nil, fmt.Errorf("battery monitor: Δ = %v must be positive", cfg.Delta)
	}
	if cfg.MaxHeight <= 0 {
		return nil, fmt.Errorf("battery monitor: MaxHeight = %v must be positive", cfg.MaxHeight)
	}
	m := &Monitor{delta: cfg.Delta}
	// Tmax: battery required to land from the maximum height at the
	// guaranteed descent rate, with braking-level control effort, times the
	// safety factor. Conservative and computed offline (Section V-B).
	landingTime := time.Duration(cfg.MaxHeight / descentRate * float64(time.Second))
	worstLandingControl := cfg.Params.MaxAccel // pessimistic control effort while landing
	m.tmax = safetyFactor * (cfg.Params.IdleDrainPerSec + cfg.Params.AccelDrainPerSec*worstLandingControl) * landingTime.Seconds()
	// cost* = max_u cost(u, 2Δ).
	m.costStar = cfg.Params.MaxCost(2 * cfg.Delta)
	return m, nil
}

// Delta returns the battery DM period Δ.
func (m *Monitor) Delta() time.Duration { return m.delta }

// Tmax returns the precomputed maximum landing budget.
func (m *Monitor) Tmax() float64 { return m.tmax }

// CostStar returns cost* = max_u cost(u, 2Δ).
func (m *Monitor) CostStar() float64 { return m.costStar }

// SaferThreshold returns the φsafer charge fraction.
func (m *Monitor) SaferThreshold() float64 { return saferThreshold }

// Safe is φsafe := bt > 0 — the drone has not run out of charge. A landed
// drone is also safe regardless of charge: φbat only forbids crashing
// because of low battery.
func (m *Monitor) Safe(bt float64, landed bool) bool {
	return landed || bt > 0
}

// TTF2Delta is ttf2Δ(bt, φsafe) = bt − cost* < Tmax: the remaining charge
// after a worst-case 2Δ may not suffice to land safely.
func (m *Monitor) TTF2Delta(bt float64) bool {
	return bt-m.costStar < m.tmax
}

// InSafer is bt ∈ φsafer := bt > SaferThreshold.
func (m *Monitor) InSafer(bt float64) bool {
	return bt > saferThreshold
}
