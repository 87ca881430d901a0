package falsify

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// The schedule strategy is the systematic-testing side of the SOTER tool
// chain (Section V): instead of mutating scenario parameters it explores
// node-firing interleavings of the *base* configuration under
// bounded-asynchrony semantics — time advances in rounds, and within an
// instant every firing node runs exactly once, in any order. Exploration is
// replay-based: nodes and the plant carry arbitrary state, so rather than
// snapshotting configurations every schedule is a fresh closed-loop run
// (sim.Run, with RunConfig.Order choosing each instant's permutation from a
// choice vector). Each explored schedule costs one budget unit and is scored
// and filed like any candidate; its choice vector replays the exact
// interleaving.

// maxBranching caps the interleavings explored at one choice point: with k
// nodes firing at an instant there are k! orders, and only the first 720
// (6!) are explored.
const maxBranching = 720

// scheduleStrategy is the strategy table's "schedule" (exhaustive lexicographic DFS
// over choice vectors) / "schedule:N" (one random interleaving per seed
// CampaignSeed, …, CampaignSeed+N-1).
type scheduleStrategy struct{ seeds int }

func (s scheduleStrategy) Name() string {
	if s.seeds > 0 {
		return fmt.Sprintf("schedule:%d", s.seeds)
	}
	return "schedule"
}

// Search explores until the budget is spent. Exhaustive mode may visit the
// whole bounded tree below budget; that ends the search, not an error.
func (s scheduleStrategy) Search(ctx context.Context, e *Engine) error {
	spec := e.Base()
	_, err := exploreSchedules(ctx, s.seeds, e.CampaignSeed(), e.Remaining, func(sch *schedule) error {
		return e.evaluateSchedule(ctx, spec, sch)
	})
	return err
}

// evaluateSchedule runs the base spec at the campaign seed under one
// interleaving and files the run. Cancellation returns ctx's error with
// nothing accounted.
func (e *Engine) evaluateSchedule(ctx context.Context, spec scenario.Spec, sch *schedule) error {
	rc, err := spec.Build(e.cfg.Seed)
	var res *sim.Result
	if err == nil {
		rc.Context = ctx
		rc.Order = sch.order
		res, err = sim.Run(rc)
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
	}
	e.fileSchedule(sch, res, err)
	return nil
}

// fileSchedule accounts one explored schedule like an evaluated candidate:
// the campaign's base params at the campaign seed, identified by the (spec,
// choice vector) fingerprint.
func (e *Engine) fileSchedule(sch *schedule, res *sim.Result, err error) {
	out := Outcome{Candidate: Candidate{Params: e.baseParams, Seed: e.cfg.Seed}, ScheduleSeed: sch.seed, Err: err}
	if err == nil {
		out.Schedule = append([]int{}, sch.chosen...) // non-nil marks a schedule outcome
		out.Fingerprint = scheduleFingerprint(e.baseFP, out.Schedule)
		e.score(&out, res.Metrics, nil)
	}
	e.account(&out)
	e.emitProgress()
}

// schedule is one interleaving under construction: its order method is the
// run's runtime.ScheduleOrder, recording every choice point. Choice points
// past the replayed prefix pick index 0 (DFS), or a random index when rng is
// set (random mode).
type schedule struct {
	prefix    []int
	rng       *splitMix
	seed      int64 // random-mode seed, kept as provenance
	chosen    []int
	branching []int
}

func (s *schedule) order(_ time.Duration, firing []string) []string {
	b := branchingOf(len(firing))
	choice := 0
	switch n := len(s.chosen); {
	case n < len(s.prefix):
		choice = min(s.prefix[n], b-1)
	case s.rng != nil:
		choice = int(s.rng.next() % uint64(b))
	}
	s.chosen = append(s.chosen, choice)
	s.branching = append(s.branching, b)
	return permute(firing, choice)
}

// exploreSchedules is the enumeration loop. With seeds > 0 it samples one
// random interleaving per seed firstSeed, firstSeed+1, …; otherwise it
// enumerates choice vectors in lexicographic order, a stateless DFS over
// replayed runs. run executes one schedule with sch.order installed as the
// run's ScheduleOrder. The loop stops when remaining() reaches zero, when
// run returns an error (returned as is) or when ctx is cancelled; exhausted
// reports that the DFS visited the whole bounded tree.
func exploreSchedules(ctx context.Context, seeds int, firstSeed int64, remaining func() int, run func(sch *schedule) error) (exhausted bool, err error) {
	if seeds > 0 {
		for i := 0; i < seeds && remaining() > 0; i++ {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			seed := firstSeed + int64(i)
			if err := run(&schedule{rng: newSplitMix(seed), seed: seed}); err != nil {
				return false, err
			}
		}
		return false, nil
	}
	var prefix []int
	for remaining() > 0 {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		sch := &schedule{prefix: prefix}
		if err := run(sch); err != nil {
			return false, err
		}
		if prefix = nextVector(sch.chosen, sch.branching); prefix == nil {
			return true, nil
		}
	}
	return false, nil
}

// nextVector returns the lexicographically next choice vector, or nil when
// the tree is exhausted.
func nextVector(chosen, branching []int) []int {
	i := len(chosen) - 1
	for i >= 0 && chosen[i]+1 >= branching[i] {
		i--
	}
	if i < 0 {
		return nil
	}
	next := slices.Clone(chosen[:i+1])
	next[i]++
	return next
}

// branchingOf returns min(k!, maxBranching) without overflow.
func branchingOf(k int) int {
	f := 1
	for i := 2; i <= k; i++ {
		f *= i
		if f >= maxBranching {
			return maxBranching
		}
	}
	return f
}

// permute returns the idx-th permutation (factorial number system) of s,
// leaving s unmodified. idx is below branchingOf(len(s)) ≤ maxBranching, so
// the capped factorials of branchingOf decompose it like the exact ones.
func permute(s []string, idx int) []string {
	out := make([]string, 0, len(s))
	rem := slices.Clone(s)
	for n := len(rem); n > 0; n-- {
		f := branchingOf(n - 1)
		i := (idx / f) % n
		out = append(out, rem[i])
		rem = slices.Delete(rem, i, i+1)
	}
	return out
}

// splitMix is a tiny deterministic PRNG for schedule sampling.
type splitMix struct{ s uint64 }

func newSplitMix(seed int64) *splitMix {
	return &splitMix{s: uint64(seed)*2685821657736338717 + 1}
}

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
