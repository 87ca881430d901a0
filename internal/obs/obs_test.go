package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/rta"
)

// allEventKinds is one populated instance of every event variant — the
// round-trip corpus. Adding a Kind without extending this list fails
// TestEveryKindCovered.
func allEventKinds() []Event {
	return []Event{
		RunStart{T: 0, Seed: 42, Label: "surveillance-city", Modules: []string{"a", "b"}},
		RunEnd{T: 2 * time.Minute, TargetsVisited: 7, Battery: 0.625, Err: "context canceled"},
		NodeFired{T: 10 * time.Millisecond, Node: "mpr.ac"},
		NodeFired{T: 20 * time.Millisecond, Node: "mpr.dm", DM: true, Dropped: true},
		ModeSwitch{T: 300 * time.Millisecond, Module: "safe-mpr", From: rta.ModeAC, To: rta.ModeSC, Reason: rta.ReasonCoordinated, Coordinated: true},
		ModeSwitch{T: 350 * time.Millisecond, Module: "safe-mpr", From: rta.ModeAC, To: rta.ModeSC, Reason: rta.ReasonClamped},
		InvariantViolation{T: 400 * time.Millisecond, Module: "safe-mpr", Mode: rta.ModeSC},
		TimeProgress{T: 500 * time.Millisecond, Prev: 400 * time.Millisecond},
		TrajectorySample{T: 505 * time.Millisecond, Pos: geom.V(1.5, -2.25, 3), Vel: geom.V(0.1, 0, -0.5), Mode: rta.ModeAC, Landed: true},
		BatterySample{T: 600 * time.Millisecond, Charge: 0.87},
		Crash{T: 700 * time.Millisecond, Pos: geom.V(9, 9, 0)},
		Landed{T: 800 * time.Millisecond, Pos: geom.V(3, 3, 0.2), Battery: 0.3},
		CampaignProgress{T: 16, Scenario: "surveillance-city", Strategy: "guided:8", Executions: 16, Budget: 64, Found: 2, BestSeverity: 1030.5},
		CounterexampleFound{T: 16, Strategy: "guided:8", Scenario: "falsified/deadbeefcafe", Fingerprint: "deadbeefcafef00ddeadbeefcafef00d", Seed: 7, Category: "crash", Severity: 1030.5},
		CertifyProgress{T: 64, Scenario: "surveillance-city", Policy: "soter-fig9", Seeds: 64, MaxSeeds: 4096, Crashes: 1, Violations: 1, Estimate: 0.015625, Lo: 0.0004, Hi: 0.084, Threshold: 0.1, Verdict: "certified"},
	}
}

// TestEveryKindCovered pins the corpus and the wire-name table to the Kind
// enum: every kind has a wire name no other kind shares, and a corpus event,
// so the JSONL round-trip below (which needs a decode arm per kind) really
// covers the whole taxonomy.
func TestEveryKindCovered(t *testing.T) {
	seen := map[Kind]bool{}
	for _, e := range allEventKinds() {
		seen[e.Kind()] = true
	}
	named := map[string]Kind{}
	for k := Kind(0); k < Kind(KindCount); k++ {
		if !seen[k] {
			t.Errorf("no corpus event of kind %d (%q)", k, k)
		}
		name := k.String()
		if name == "" {
			t.Errorf("kind %d has no wire name in kindNames", k)
			continue
		}
		if prev, dup := named[name]; dup {
			t.Errorf("kinds %d and %d share the wire name %q", prev, k, name)
		}
		named[name] = k
	}
}

// TestJSONLRoundTrip: write the corpus through the JSONL sink, read it back,
// and require exact value equality — the replay contract of -trace files.
func TestJSONLRoundTrip(t *testing.T) {
	events := allEventKinds()
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	for _, e := range events {
		w.OnEvent(e)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != len(events) {
		t.Fatalf("wrote %d lines, want %d", n, len(events))
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if !reflect.DeepEqual(got[i], events[i]) {
			t.Errorf("event %d round-trips to\n%#v\nwant\n%#v", i, got[i], events[i])
		}
	}
}

// TestJSONLKindDiscriminator: every line leads with its wire kind, so
// line-oriented tools (jq, grep) can filter without schema knowledge.
func TestJSONLKindDiscriminator(t *testing.T) {
	for _, e := range allEventKinds() {
		line, err := MarshalEvent(e)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf(`{"kind":"%s",`, e.Kind())
		if !strings.HasPrefix(string(line), want) {
			t.Errorf("line %q does not start with %q", line, want)
		}
	}
}

// TestUnmarshalRejectsGarbage: malformed lines and unknown kinds error
// rather than decoding to a zero event.
func TestUnmarshalRejectsGarbage(t *testing.T) {
	for _, line := range []string{"not json", `{"kind":"warp_drive","t_ns":1}`, `{"t_ns":1}`} {
		if _, err := UnmarshalEvent([]byte(line)); err == nil {
			t.Errorf("UnmarshalEvent(%q) succeeded", line)
		}
	}
}

// FuzzReadJSONL holds the trace decoder, the replay path of recorded event
// streams, to its contract: it never panics, decoding is deterministic (the
// same bytes give the same events and the same error), and every event it
// accepts round-trips through MarshalEvent. The wire form is what
// round-trips: a decoded RunStart may hold an empty non-nil Modules that
// omitempty drops, so the check is that re-encoding is a fixpoint and that
// the event decoded from an encoded line round-trips exactly.
func FuzzReadJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		again, againErr := ReadJSONL(bytes.NewReader(data))
		if fmt.Sprint(err) != fmt.Sprint(againErr) || !reflect.DeepEqual(events, again) {
			t.Fatalf("ReadJSONL not deterministic: %v, %v then %v, %v", events, err, again, againErr)
		}
		for i, e := range events {
			line, err := MarshalEvent(e)
			if err != nil {
				t.Fatalf("event %d (%#v) does not encode: %v", i, e, err)
			}
			back, err := UnmarshalEvent(line)
			if err != nil {
				t.Fatalf("event %d: encoded line %s does not decode: %v", i, line, err)
			}
			reline, err := MarshalEvent(back)
			if err != nil || !bytes.Equal(reline, line) {
				t.Fatalf("event %d: re-encoding is not a fixpoint:\n%s\n%s (%v)", i, line, reline, err)
			}
			if again, err := UnmarshalEvent(reline); err != nil || !reflect.DeepEqual(again, back) {
				t.Fatalf("event %d: %#v round-trips to %#v (%v)", i, back, again, err)
			}
		}
	})
}

// TestRecorderBound: the recorder keeps exactly the most recent cap events
// in arrival order and counts evictions.
func TestRecorderBound(t *testing.T) {
	const capacity, total = 8, 21
	r := NewRecorder(capacity)
	for i := 0; i < total; i++ {
		r.OnEvent(BatterySample{T: time.Duration(i), Charge: float64(i)})
	}
	if r.Len() != capacity {
		t.Fatalf("Len = %d, want %d", r.Len(), capacity)
	}
	if r.Dropped() != total-capacity {
		t.Fatalf("Dropped = %d, want %d", r.Dropped(), total-capacity)
	}
	events := r.Events()
	for i, e := range events {
		want := time.Duration(total - capacity + i)
		if got := e.(BatterySample).T; got != want {
			t.Errorf("event %d at t=%v, want %v (oldest-first order)", i, got, want)
		}
	}
}

// TestMultiFanOutAndInterests: Multi delivers in order and respects member
// interest masks; its own mask is the union.
func TestMultiFanOutAndInterests(t *testing.T) {
	var order []string
	all := ObserverFunc(func(e Event) { order = append(order, "all:"+e.Kind().String()) })
	crashes := kindFiltered{KindSet: Kinds(KindCrash), fn: func(e Event) { order = append(order, "crash:"+e.Kind().String()) }}
	m := Multi{all, crashes}
	if got, want := m.Interests(), AllKinds; got != want {
		t.Fatalf("Interests = %b, want %b", got, want)
	}
	m.OnEvent(Crash{T: 1})
	m.OnEvent(BatterySample{T: 2})
	want := []string{"all:crash", "crash:crash", "all:battery_sample"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("dispatch order = %v, want %v", order, want)
	}
}

type kindFiltered struct {
	KindSet
	fn func(Event)
}

func (k kindFiltered) OnEvent(e Event)    { k.fn(e) }
func (k kindFiltered) Interests() KindSet { return k.KindSet }

// TestByKindHonoursInterests: the dispatch table only routes kinds an
// observer asked for.
func TestByKindHonoursInterests(t *testing.T) {
	narrow := kindFiltered{KindSet: Kinds(KindModeSwitch, KindRunEnd), fn: func(Event) {}}
	wide := ObserverFunc(func(Event) {})
	table := ByKind([]Observer{narrow, wide})
	if got := len(table[KindModeSwitch]); got != 2 {
		t.Errorf("mode_switch list has %d observers, want 2", got)
	}
	if got := len(table[KindNodeFired]); got != 1 {
		t.Errorf("node_fired list has %d observers, want 1 (narrow excluded)", got)
	}
}

// TestMetricsSinkAggregation: a hand-written stream aggregates to the
// expected metrics, including partial accounting before RunEnd.
func TestMetricsSinkAggregation(t *testing.T) {
	s := NewMetricsSink(nil)
	s.OnEvent(RunStart{Modules: []string{"m1", "m2"}})
	s.OnEvent(NodeFired{T: 1, Node: "n", Dropped: true})
	s.OnEvent(NodeFired{T: 2, Node: "n"})
	s.OnEvent(ModeSwitch{T: 10 * time.Second, Module: "m1", From: rta.ModeSC, To: rta.ModeAC})
	s.OnEvent(InvariantViolation{T: 11 * time.Second, Module: "m1", Mode: rta.ModeAC})
	s.OnEvent(Crash{T: 12 * time.Second, Pos: geom.V(1, 2, 0)})
	s.OnEvent(Crash{T: 13 * time.Second, Pos: geom.V(5, 5, 0)})
	s.OnEvent(RunEnd{T: 30 * time.Second, TargetsVisited: 4, Battery: 0.5})

	m := s.Metrics()
	if m.DroppedFirings != 1 || m.InvariantViolations != 1 {
		t.Errorf("dropped=%d violations=%d, want 1 and 1", m.DroppedFirings, m.InvariantViolations)
	}
	if !m.Crashed || m.Collisions != 2 || m.CrashTime != 12*time.Second || m.CrashPos != geom.V(1, 2, 0) {
		t.Errorf("crash accounting = %+v", m)
	}
	if m.Duration != 30*time.Second || m.TargetsVisited != 4 || m.BatteryAtEnd != 0.5 {
		t.Errorf("run-end accounting = %+v", m)
	}
	want := map[string]ModuleStats{
		"m1": {Reengagements: 1, SCTime: 10 * time.Second, ACTime: 20 * time.Second},
		"m2": {SCTime: 30 * time.Second},
	}
	if !reflect.DeepEqual(m.Modules, want) {
		t.Errorf("modules = %+v, want %+v", m.Modules, want)
	}
}
