package battery

import (
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/plant"
)

func testConfig() Config {
	return Config{
		Params:    plant.DefaultParams(),
		Delta:     2 * time.Second,
		MaxHeight: 12,
	}
}

func TestNewMonitorDefaults(t *testing.T) {
	m, err := NewMonitor(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.SaferThreshold() != 0.85 {
		t.Errorf("default threshold = %v", m.SaferThreshold())
	}
	if m.Delta() != 2*time.Second {
		t.Errorf("Delta = %v", m.Delta())
	}
	if m.Tmax() <= 0 {
		t.Errorf("Tmax = %v, want positive", m.Tmax())
	}
	if m.CostStar() <= 0 {
		t.Errorf("cost* = %v, want positive", m.CostStar())
	}
}

func TestNewMonitorValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero delta", func(c *Config) { c.Delta = 0 }},
		{"zero height", func(c *Config) { c.MaxHeight = 0 }},
		{"bad params", func(c *Config) { c.Params.MaxAccel = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := testConfig()
			tt.mutate(&c)
			if _, err := NewMonitor(c); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestTmaxFormula(t *testing.T) {
	cfg := testConfig()
	m, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Tmax = factor · (idle + accelDrain·amax) · (maxHeight / descent).
	p := cfg.Params
	want := 2.0 * (p.IdleDrainPerSec + p.AccelDrainPerSec*p.MaxAccel) * 12.0
	if diff := m.Tmax() - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("Tmax = %v, want %v", m.Tmax(), want)
	}
	// cost* matches the plant's own worst-case discharge.
	if m.CostStar() != p.MaxCost(4*time.Second) {
		t.Errorf("cost* = %v, want %v", m.CostStar(), p.MaxCost(4*time.Second))
	}
}

func TestSwitchingPredicates(t *testing.T) {
	m, err := NewMonitor(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	trip := m.Tmax() + m.CostStar()
	if !m.TTF2Delta(trip - 1e-9) {
		t.Error("charge just below the trip point must switch")
	}
	if m.TTF2Delta(trip + 1e-6) {
		t.Error("charge above the trip point must not switch")
	}
	if !m.InSafer(0.9) || m.InSafer(0.85) || m.InSafer(0.5) {
		t.Error("φsafer thresholding wrong")
	}
	if !m.Safe(0.01, false) || m.Safe(0, false) {
		t.Error("φsafe = bt > 0 wrong")
	}
	if !m.Safe(0, true) {
		t.Error("a landed drone is safe regardless of charge")
	}
}

// TestSwitchBudgetIsSufficient verifies the core battery-safety argument:
// if the DM switches exactly at the trip point, the remaining charge covers
// the worst 2Δ of arbitrary control plus the full landing budget.
func TestSwitchBudgetIsSufficient(t *testing.T) {
	cfg := testConfig()
	m, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	charge := m.Tmax() + m.CostStar() // the trip point
	// Worst 2Δ before SC takes effect.
	charge -= cfg.Params.MaxCost(2 * cfg.Delta)
	// The landing itself, at the pessimistic control effort Tmax assumes
	// (|u| = MaxAccel), from max height at the guaranteed descent rate.
	landing := cfg.Params.Cost(
		geom.V(cfg.Params.MaxAccel, 0, 0),
		time.Duration(cfg.MaxHeight/1.0*float64(time.Second)),
	)
	charge -= landing
	if charge <= 0 {
		t.Errorf("budget insufficient: %v left after worst case (Tmax=%v)", charge, m.Tmax())
	}
}
