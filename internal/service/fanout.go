package service

import (
	"sync"

	"repro/internal/obs"
)

// StreamKinds is the event mask a job's fan-out subscribes to: the low-rate,
// high-signal progress events (run boundaries, mode switches, invariant
// violations, crashes, touchdowns). The per-firing and per-sub-step kinds
// (NodeFired, TimeProgress, TrajectorySample, BatterySample) are deliberately
// excluded — the fan-out is attached to every mission of a job, and the
// obs interest masks guarantee the kinds it does not declare cost nothing on
// the simulation hot path.
var StreamKinds = obs.Kinds(
	obs.KindRunStart, obs.KindRunEnd, obs.KindModeSwitch,
	obs.KindInvariantViolation, obs.KindCrash, obs.KindLanded,
	obs.KindCampaignProgress, obs.KindCounterexample,
	obs.KindCertifyProgress,
)

// subscriberBuffer is the per-subscriber channel buffer of an HTTP event
// stream, and the default for a non-positive Subscribe buffer. It absorbs
// the bursts of progress events a job's workers emit while the client's
// previous write is in flight; a subscriber that falls further behind has
// events dropped rather than stalling the simulation goroutines.
const subscriberBuffer = 256

// fanout broadcasts a job's event stream to any number of HTTP subscribers —
// the service-side instance of the obs dispatcher pattern (one stream, many
// composable consumers), extended with the two things a network consumer
// needs: a bounded replay ring, so a subscriber that connects after the job
// started (or even after it finished) still sees the stream from the
// beginning, and per-subscriber bounded buffers, so one slow client can never
// stall the simulation goroutines. Safe for concurrent use: a job's missions
// emit from every fleet worker at once.
type fanout struct {
	mu     sync.Mutex
	ring   *obs.Recorder
	subs   map[int]*subscriber
	nextID int
	closed bool
}

// subscriber is one attached event consumer.
type subscriber struct {
	ch      chan obs.Event
	mask    obs.KindSet
	dropped int
}

func newFanout(ringCap int) *fanout {
	return &fanout{ring: obs.NewRecorder(ringCap), subs: make(map[int]*subscriber)}
}

// Interests implements obs.Interested.
func (f *fanout) Interests() obs.KindSet { return StreamKinds }

// OnEvent implements obs.Observer: record into the replay ring and deliver to
// every subscriber whose mask matches, dropping (and counting) events a full
// subscriber buffer cannot take rather than blocking the run.
func (f *fanout) OnEvent(e obs.Event) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.ring.OnEvent(e)
	k := e.Kind()
	for _, s := range f.subs {
		if !s.mask.Has(k) {
			continue
		}
		select {
		case s.ch <- e:
		default:
			s.dropped++
		}
	}
}

// Subscribe attaches a consumer restricted to mask. It returns the replayed
// tail of events already seen (in arrival order, mask-filtered), a channel
// carrying all subsequent events, and a cancel function. The channel is
// closed when the job's stream ends or the subscription is cancelled; the
// replay snapshot and the channel are gap-free and duplicate-free because
// both are taken under the same lock the emitters hold.
func (f *fanout) Subscribe(mask obs.KindSet, buffer int) (replay []obs.Event, ch <-chan obs.Event, cancel func()) {
	if buffer <= 0 {
		buffer = subscriberBuffer
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, e := range f.ring.Events() {
		if mask.Has(e.Kind()) {
			replay = append(replay, e)
		}
	}
	s := &subscriber{ch: make(chan obs.Event, buffer), mask: mask}
	if f.closed {
		close(s.ch)
		return replay, s.ch, func() {}
	}
	id := f.nextID
	f.nextID++
	f.subs[id] = s
	return replay, s.ch, func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		if _, live := f.subs[id]; live {
			delete(f.subs, id)
			close(s.ch)
		}
	}
}

// Close ends the stream: every subscriber channel is closed and later events
// are discarded. Closing twice is a no-op.
func (f *fanout) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	for id, s := range f.subs {
		delete(f.subs, id)
		close(s.ch)
	}
}
