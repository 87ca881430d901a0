package plan

import "sync"

// freeList is a mutex-guarded stack of search scratch shared by every
// planner in the process. A Plan call takes one value for its duration and
// returns it, so the list never holds more values than searches ever ran
// at once, however many planners, grids or missions there are. Unlike a
// sync.Pool it keeps its values across garbage collections, so a warm
// process plans without allocating its scratch again.
type freeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// get returns a free value, or a new zero one when none is free.
func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	s := l.free[n-1]
	l.free = l.free[:n-1]
	return s
}

// put returns a value taken by get; the caller must not use it afterwards.
func (l *freeList[T]) put(s *T) {
	l.mu.Lock()
	l.free = append(l.free, s)
	l.mu.Unlock()
}
