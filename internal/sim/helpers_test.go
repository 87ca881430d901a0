package sim

import (
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/plant"
)

// initialAt builds a hovering initial state at p with a full battery.
func initialAt(p geom.Vec3) plant.State {
	return plant.State{Pos: p, Battery: 1}
}

// trajectoryInto is an observer appending the run's trajectory samples to
// *out.
func trajectoryInto(out *[]obs.TrajectorySample) obs.Observer {
	return obs.ObserverFunc(func(e obs.Event) {
		if s, ok := e.(obs.TrajectorySample); ok {
			*out = append(*out, s)
		}
	})
}
