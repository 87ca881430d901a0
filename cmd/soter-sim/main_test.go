package main

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rta"
)

// TestTrajectoryCSV replays a recorded event stream through the CSV
// observer: 5 ms physics samples, a crash at 237 ms (between grid points),
// the sub-steps after it, a touchdown on the 300 ms grid point and a
// deadline at 330 ms. The header is right, only the 100 ms grid samples
// become rows, the crash leaves its position, the touchdown row shows the
// landed state and the off-grid deadline leaves its final sample.
func TestTrajectoryCSV(t *testing.T) {
	c := &trajectoryCSV{}
	replay := func(e obs.Event) {
		if obs.InterestsOf(c).Has(e.Kind()) {
			c.OnEvent(e)
		}
	}
	for ts := 5 * time.Millisecond; ts <= 330*time.Millisecond; ts += 5 * time.Millisecond {
		replay(obs.TrajectorySample{T: ts, Pos: geom.V(ts.Seconds(), 1, 2), Vel: geom.V(1, 0, 0), Mode: rta.ModeAC})
		if ts == 235*time.Millisecond {
			crash := geom.V(12.5, 7.25, 0.5)
			replay(obs.TrajectorySample{T: 237 * time.Millisecond, Pos: crash, Vel: geom.V(2, 0, 0), Mode: rta.ModeSC})
			replay(obs.Crash{T: 237 * time.Millisecond, Pos: crash})
		}
		if ts == 300*time.Millisecond {
			replay(obs.Landed{T: ts, Pos: geom.V(0.3, 1, 0)})
		}
	}
	replay(obs.RunEnd{T: 330 * time.Millisecond})
	var buf bytes.Buffer
	if err := c.write(&buf); err != nil {
		t.Fatal(err)
	}
	want := `t_s,x,y,z,vx,vy,vz,mode
0.100,0.1000,1.0000,2.0000,1.0000,0.0000,0.0000,AC
0.200,0.2000,1.0000,2.0000,1.0000,0.0000,0.0000,AC
0.237,12.5000,7.2500,0.5000,2.0000,0.0000,0.0000,SC
0.300,0.3000,1.0000,0.0000,0.0000,0.0000,0.0000,AC
0.330,0.3300,1.0000,2.0000,1.0000,0.0000,0.0000,AC
`
	if got := buf.String(); got != want {
		t.Errorf("CSV =\n%s\nwant\n%s", got, want)
	}
}
