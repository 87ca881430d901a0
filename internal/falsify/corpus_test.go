package falsify

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	entries := []CorpusEntry{
		{
			Counterexample: Counterexample{
				Scenario:    "surveillance-city",
				Candidate:   Candidate{Seed: 42},
				Fingerprint: "aaaa000011112222",
				Category:    CategoryCrash,
				Severity:    1010,
			},
			Found: "round-trip test",
		},
		{
			Counterexample: Counterexample{
				Scenario:    "surveillance-city",
				Candidate:   Candidate{Seed: 7},
				Fingerprint: "bbbb000011112222",
				Category:    CategoryClampStorm,
			},
			ClampStorm:    20,
			Retired:       true,
			RetiredReason: "defect fixed in the hysteresis policy",
		},
	}
	paths, err := WriteCorpus(dir, entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("wrote %d paths", len(paths))
	}
	// Writing again is idempotent (fingerprint is the identity).
	if _, err := WriteCorpus(dir, entries); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d entries", len(got))
	}
	// LoadCorpus sorts by file name = fingerprint.
	if got[0].Fingerprint != "aaaa000011112222" || got[1].Fingerprint != "bbbb000011112222" {
		t.Errorf("order: %s, %s", got[0].Fingerprint, got[1].Fingerprint)
	}
	if got[1].RetiredReason != entries[1].RetiredReason || got[0].Found != entries[0].Found {
		t.Errorf("metadata lost: %+v", got)
	}
}

func TestCorpusRejectsMisnamedFile(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteCorpus(dir, []CorpusEntry{{
		Counterexample: Counterexample{Fingerprint: "cccc000011112222"},
	}}); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, "cccc000011112222.json")
	if err := os.Rename(old, filepath.Join(dir, "renamed.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpus(dir); err == nil {
		t.Error("misnamed corpus file accepted")
	}
	// ".json" is the name an empty fingerprint asks for; WriteCorpus never
	// writes such an entry, so LoadCorpus does not accept one.
	empty := t.TempDir()
	if err := os.WriteFile(filepath.Join(empty, ".json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpus(empty); err == nil {
		t.Error("fingerprint-less corpus file accepted")
	}
}

func TestWriteCorpusRejectsMissingFingerprint(t *testing.T) {
	if _, err := WriteCorpus(t.TempDir(), []CorpusEntry{{}}); err == nil {
		t.Error("fingerprint-less entry accepted")
	}
}

func TestLoadCorpusMissingDirIsEmpty(t *testing.T) {
	entries, err := LoadCorpus(filepath.Join(t.TempDir(), "nope"))
	if err != nil || len(entries) != 0 {
		t.Errorf("missing dir: %v, %v", entries, err)
	}
}

// A real counterexample found by a campaign survives the full corpus cycle:
// write, load, replay, still-falsifies.
func TestCorpusReplayCycle(t *testing.T) {
	base := plantedScenario(t)
	res, err := Campaign(context.Background(), Config{Scenario: base, Seed: 1, Budget: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Counterexamples) == 0 {
		t.Fatal("campaign found nothing to file")
	}
	dir := t.TempDir()
	if _, err := WriteCorpus(dir, res.Entries("replay-cycle test", 0)[:1]); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := loaded[0]
	v, skipped, err := e.Replay(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if skipped {
		t.Fatal("live entry skipped as retired")
	}
	if !e.StillFalsifies(v) {
		t.Errorf("loaded counterexample no longer falsifies: filed %q, replayed %+v", e.Category, v)
	}
}

// Fingerprint drift must refuse to replay — a changed spec semantic cannot
// silently replay as a different run.
func TestReplayRefusesFingerprintDrift(t *testing.T) {
	base := plantedScenario(t)
	res, err := Campaign(context.Background(), Config{Scenario: base, Seed: 1, Budget: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Counterexamples) == 0 {
		t.Fatal("campaign found nothing")
	}
	ce := res.Counterexamples[0]
	ce.Fingerprint = "0000000000000000"
	if _, err := ce.Replay(context.Background()); err == nil || !strings.Contains(err.Error(), "drifted") {
		t.Errorf("drifted fingerprint replayed: %v", err)
	}
	// An unknown base scenario is also a hard error, not a clean verdict.
	ce = res.Counterexamples[0]
	ce.Scenario = "no-such-base"
	if _, err := ce.Replay(context.Background()); err == nil {
		t.Error("unknown base scenario replayed")
	}
}

func TestStillFalsifiesClampStormSemantics(t *testing.T) {
	storm := CorpusEntry{
		Counterexample: Counterexample{Category: CategoryClampStorm},
		ClampStorm:     10,
	}
	if !storm.StillFalsifies(Verdict{Clamped: 10}) {
		t.Error("at-threshold storm rejected")
	}
	if storm.StillFalsifies(Verdict{Clamped: 9}) {
		t.Error("below-threshold storm accepted")
	}
	// A storm entry that now crashes outright got worse, not better.
	if !storm.StillFalsifies(Verdict{Crashed: true}) {
		t.Error("crash demoted a clamp-storm entry")
	}
	crash := CorpusEntry{Counterexample: Counterexample{Category: CategoryCrash}}
	if crash.StillFalsifies(Verdict{InvariantViolations: 1}) {
		t.Error("crash entry satisfied by a mere invariant violation")
	}
	if !crash.StillFalsifies(Verdict{Crashed: true}) {
		t.Error("crash entry rejected a crash")
	}
}

// TestCommittedCorpusReplays is the regression suite proper: every non-retired
// entry committed under testdata/falsified must still falsify, byte-exact
// category, or be explicitly retired with a reason.
func TestCommittedCorpusReplays(t *testing.T) {
	entries, err := LoadCorpus(filepath.Join("testdata", "falsified"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("committed corpus is empty — the falsification regression suite lost its entries")
	}
	for _, e := range entries {
		t.Run(e.Fingerprint, func(t *testing.T) {
			v, skipped, err := e.Replay(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if skipped {
				return // retired with a reason: documentation, not an assertion
			}
			if !e.StillFalsifies(v) {
				t.Errorf("entry no longer falsifies: filed %q, replay verdict %+v — fix confirmed? retire the entry with a reason", e.Category, v)
			}
		})
	}
}

// TestReplayRetirementPath pins the corpus retirement semantics: a retired
// entry with a reason is skipped without being executed (no error even when
// the underlying counterexample could never replay), and a retired entry
// without a reason is rejected.
func TestReplayRetirementPath(t *testing.T) {
	// The fingerprint deliberately resolves to nothing replayable: if the
	// skip path ever tried to execute the entry, it would error loudly.
	retired := CorpusEntry{
		Counterexample: Counterexample{
			Scenario:    "no-such-base",
			Fingerprint: "feedfacefeedface",
			Category:    CategoryCrash,
		},
		Retired:       true,
		RetiredReason: "defect fixed by the clamp ordering change",
	}
	v, skipped, err := retired.Replay(context.Background())
	if err != nil {
		t.Fatalf("retired entry with a reason errored: %v", err)
	}
	if !skipped {
		t.Fatal("retired entry with a reason was not skipped")
	}
	if v != (Verdict{}) {
		t.Fatalf("skipped entry carries a verdict: %+v", v)
	}

	for _, reason := range []string{"", "   "} {
		noReason := retired
		noReason.RetiredReason = reason
		if _, _, err := noReason.Replay(context.Background()); err == nil ||
			!strings.Contains(err.Error(), "without a reason") {
			t.Errorf("retired entry with reason %q replayed to %v, want rejection", reason, err)
		}
	}
}

// FuzzLoadCorpus holds the corpus decoder to its contract on one file named
// "<name>.json" holding the fuzz bytes: it never panics, an accepted entry
// is named after its fingerprint and survives WriteCorpus → LoadCorpus
// unchanged, a decodable entry whose fingerprint disagrees with the file
// name is refused, and loading is deterministic. The committed corpus
// entries are the seeds.
func FuzzLoadCorpus(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "falsified", "*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("committed corpus: %v, %d files", err, len(seeds))
	}
	for _, path := range seeds {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(strings.TrimSuffix(filepath.Base(path), ".json"), raw)
	}
	// One directory pair per fuzz worker, emptied after every input: a fresh
	// t.TempDir per input would cost more than the decode under test.
	dir, out := f.TempDir(), f.TempDir()
	f.Fuzz(func(t *testing.T, name string, raw []byte) {
		file := name + ".json"
		if strings.ContainsRune(name, filepath.Separator) {
			return
		}
		path := filepath.Join(dir, file)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			return // not a file name the file system takes
		}
		defer os.Remove(path)
		entries, err := LoadCorpus(dir)
		again, againErr := LoadCorpus(dir)
		if !reflect.DeepEqual(entries, again) || fmt.Sprint(err) != fmt.Sprint(againErr) {
			t.Fatalf("LoadCorpus not deterministic: %v, %v then %v, %v", entries, err, again, againErr)
		}
		var decoded CorpusEntry
		if json.Unmarshal(raw, &decoded) == nil && decoded.CorpusFile() != file && err == nil {
			t.Fatalf("file %q holding fingerprint %q accepted", file, decoded.Fingerprint)
		}
		if err != nil {
			return
		}
		if len(entries) != 1 || entries[0].CorpusFile() != file {
			t.Fatalf("file %q loaded as %d entries: %+v", file, len(entries), entries)
		}
		written, err := WriteCorpus(out, entries)
		for _, p := range written {
			defer os.Remove(p)
		}
		if err != nil {
			t.Fatalf("accepted entry %q does not write back: %v", file, err)
		}
		reloaded, err := LoadCorpus(out)
		if err != nil {
			t.Fatalf("written entry %q does not load: %v", file, err)
		}
		want, _ := json.Marshal(entries)
		got, _ := json.Marshal(reloaded)
		if !bytes.Equal(got, want) {
			t.Fatalf("entry %q changed across WriteCorpus → LoadCorpus:\n%s\nvs\n%s", file, got, want)
		}
	})
}
