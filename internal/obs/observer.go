package obs

// Observer consumes a run's event stream. Emitters deliver events
// synchronously on the run goroutine, so OnEvent must be fast; an observer
// that needs to do slow work should buffer (see Recorder) and process
// elsewhere. Unless documented otherwise an Observer is not safe for
// concurrent use and must be attached to at most one run at a time.
type Observer interface {
	OnEvent(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(e Event) { f(e) }

// Interested optionally narrows the event kinds an Observer receives.
// Emitters consult the mask once at attachment time and skip both dispatch
// and event construction for kinds no attached observer wants — which is how
// a hot loop (a node firing every 10 ms across thousands of fleet missions)
// stays free when only aggregate sinks are listening. Observers that do not
// implement Interested receive every kind.
type Interested interface {
	Interests() KindSet
}

// InterestsOf returns the observer's declared interest mask, or AllKinds
// when it does not narrow.
func InterestsOf(o Observer) KindSet {
	if i, ok := o.(Interested); ok {
		return i.Interests()
	}
	return AllKinds
}

// Multi fans one event stream out to many observers, in slice order. Its
// interest mask is the union of its members'; members that narrowed their
// interests are skipped for kinds outside their mask.
type Multi []Observer

// OnEvent implements Observer.
func (m Multi) OnEvent(e Event) {
	k := e.Kind()
	for _, o := range m {
		if InterestsOf(o).Has(k) {
			o.OnEvent(e)
		}
	}
}

// Interests implements Interested.
func (m Multi) Interests() KindSet {
	var s KindSet
	for _, o := range m {
		s |= InterestsOf(o)
	}
	return s
}

// ByKind partitions observers into per-kind dispatch lists. Emitters build
// the table once at attachment time; emission then indexes by kind, checks
// for an empty list before constructing the event, and delivers in
// attachment order.
func ByKind(observers []Observer) (table [KindCount][]Observer) {
	for _, o := range observers {
		s := InterestsOf(o)
		for k := Kind(0); k < numKinds; k++ {
			if s.Has(k) {
				table[k] = append(table[k], o)
			}
		}
	}
	return table
}

// Emit delivers the event to every observer in the list. Callers on a hot
// path should guard with len(list) > 0 before constructing the event.
func Emit(list []Observer, e Event) {
	for _, o := range list {
		o.OnEvent(e)
	}
}

// TrajectoryObserver is the typed fast path for the stream's highest-volume
// kind: delivering a TrajectorySample through OnEvent boxes the sample into
// the Event interface on every physics sub-step, while OnTrajectorySample
// passes it by value. Implementations must treat both entry points
// identically; emitters may use either.
type TrajectoryObserver interface {
	Observer
	OnTrajectorySample(TrajectorySample)
}

// TrajectoryObservers converts a KindTrajectorySample dispatch list to its
// typed form. It returns nil unless EVERY member implements
// TrajectoryObserver — mixing entry points within one instant would reorder
// deliveries relative to attachment order, so emitters fall back to the
// boxed path for the whole list when any member lacks the typed one.
func TrajectoryObservers(list []Observer) []TrajectoryObserver {
	return typedList[TrajectoryObserver](list)
}

// EmitTrajectory delivers a sample through the typed path, in list order.
func EmitTrajectory(list []TrajectoryObserver, s TrajectorySample) {
	for _, o := range list {
		o.OnTrajectorySample(s)
	}
}

// NodeFiredObserver is the typed fast path for NodeFired, which the executor
// emits on every node firing: delivering it through OnEvent boxes the event
// into the Event interface per firing, while OnNodeFired passes it by value.
// Implementations must treat both entry points identically; emitters may use
// either.
type NodeFiredObserver interface {
	Observer
	OnNodeFired(NodeFired)
}

// NodeFiredObservers converts a KindNodeFired dispatch list to its typed
// form, under the same all-or-nothing rule as TrajectoryObservers.
func NodeFiredObservers(list []Observer) []NodeFiredObserver {
	return typedList[NodeFiredObserver](list)
}

// EmitNodeFired delivers a firing through the typed path, in list order.
func EmitNodeFired(list []NodeFiredObserver, e NodeFired) {
	for _, o := range list {
		o.OnNodeFired(e)
	}
}

// typedList returns list with every member asserted to T, or nil when the
// list is empty or any member does not implement T.
func typedList[T Observer](list []Observer) []T {
	if len(list) == 0 {
		return nil
	}
	typed := make([]T, len(list))
	for i, o := range list {
		to, ok := o.(T)
		if !ok {
			return nil
		}
		typed[i] = to
	}
	return typed
}
