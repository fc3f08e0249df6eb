package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"wpred/internal/bench"
	"wpred/internal/core"
	"wpred/internal/telemetry"
)

var (
	suiteOnce sync.Once
	suiteRefs []*telemetry.Experiment
)

// testRefs simulates a small reference suite shared read-only by the tests.
func testRefs(t *testing.T) []*telemetry.Experiment {
	t.Helper()
	suiteOnce.Do(func() {
		skus := []telemetry.SKU{{CPUs: 2, MemoryGB: 16}, {CPUs: 4, MemoryGB: 32}}
		suiteRefs = bench.GenerateSuite(bench.Standard()[:3], skus, []int{4}, 2, telemetry.NewSource(42))
	})
	if len(suiteRefs) == 0 {
		t.Fatal("suite generation produced no experiments")
	}
	return suiteRefs
}

// testSnapshot trains a cheap pipeline and wraps its state in a snapshot.
func testSnapshot(t *testing.T) (*Snapshot, *core.Pipeline, core.Config) {
	t.Helper()
	refs := testRefs(t)
	cfg := core.Config{Seed: 42}
	p, err := core.TrainPipeline(cfg, refs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.State()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := SuiteHash(refs)
	if err != nil {
		t.Fatal(err)
	}
	return &Snapshot{
		Selection: "RFE LogReg", Metric: "L2,1", Model: "SVM",
		Seed: 42, TopK: 7, Subsamples: 10,
		RefsHash: hash, CreatedUnix: 1754600000,
		State: st,
	}, p, cfg
}

// TestEncodeDecodeRoundTrip locks in the durability contract: a snapshot
// decodes to a state whose restored pipeline predicts byte-identically to
// the original, and the snapshot identity fields survive verbatim.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	snap, orig, cfg := testSnapshot(t)
	var buf bytes.Buffer
	if err := Encode(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Selection != snap.Selection || got.Metric != snap.Metric || got.Model != snap.Model ||
		got.Seed != snap.Seed || got.TopK != snap.TopK || got.Subsamples != snap.Subsamples ||
		got.RefsHash != snap.RefsHash || got.CreatedUnix != snap.CreatedUnix {
		t.Errorf("identity fields did not round-trip: %+v vs %+v", got, snap)
	}
	if len(got.State.Refs) != len(snap.State.Refs) {
		t.Fatalf("got %d refs, want %d", len(got.State.Refs), len(snap.State.Refs))
	}

	restored, err := core.Restore(cfg, got.State)
	if err != nil {
		t.Fatal(err)
	}
	target := []*telemetry.Experiment{testRefs(t)[0]}
	toSKU := telemetry.SKU{CPUs: 4, MemoryGB: 32}
	p1, _, err := orig.PredictWithReport(target, toSKU)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := restored.PredictWithReport(target, toSKU)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(p1)
	b2, _ := json.Marshal(p2)
	if !bytes.Equal(b1, b2) {
		t.Errorf("decoded snapshot predicts differently:\n%s\nvs\n%s", b1, b2)
	}
}

// TestDecodeRejectsCorruption flips or removes bytes at every interesting
// position and asserts the decoder answers with ErrCorrupt each time —
// never a nil error and never a panic.
func TestDecodeRejectsCorruption(t *testing.T) {
	snap, _, _ := testSnapshot(t)
	var buf bytes.Buffer
	if err := Encode(&buf, snap); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	flip := func(b []byte, i int) []byte {
		out := append([]byte(nil), b...)
		out[i] ^= 0x01
		return out
	}
	nl := bytes.IndexByte(valid, '\n')
	payload := valid[nl+1:]
	// resigned re-checksums an edited payload, so only the payload's own
	// validation can reject it.
	resigned := func(p []byte) []byte {
		return append([]byte(fmt.Sprintf("wpredsnap v1 %x\n", sha256.Sum256(p))), p...)
	}
	cases := map[string][]byte{
		"empty":                          {},
		"no newline":                     valid[:nl],
		"magic flipped":                  flip(valid, 0),
		"checksum flipped":               flip(valid, nl-1),
		"payload flipped":                flip(valid, nl+10),
		"last byte flipped":              flip(valid, len(valid)-1),
		"truncated payload":              valid[:len(valid)/2],
		"truncated header":               valid[:8],
		"trailing garbage":               append(append([]byte(nil), valid...), "junk"...),
		"header only":                    valid[:nl+1],
		"garbage":                        []byte("not a snapshot at all\n{}"),
		"valid header no sum":            []byte("wpredsnap v1\n{}"),
		"trailing brace, checksum valid": resigned(append(append([]byte(nil), payload...), '}')),
		"unknown key in a reference, checksum valid": resigned(bytes.Replace(payload, []byte(`"workload":`), []byte(`"bogus":1,"workload":`), 1)),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			s, err := Decode(bytes.NewReader(data))
			if err == nil {
				t.Fatalf("corrupt input decoded cleanly: %+v", s)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("error %v does not wrap ErrCorrupt", err)
			}
		})
	}
}

// TestDecodeRejectsFutureVersion asserts a higher format version fails
// with ErrVersion (not ErrCorrupt), so operators can tell "roll forward"
// from "disk rot".
func TestDecodeRejectsFutureVersion(t *testing.T) {
	snap, _, _ := testSnapshot(t)
	var buf bytes.Buffer
	if err := Encode(&buf, snap); err != nil {
		t.Fatal(err)
	}
	data := bytes.Replace(buf.Bytes(), []byte("wpredsnap v1 "), []byte("wpredsnap v2 "), 1)
	if _, err := Decode(bytes.NewReader(data)); !errors.Is(err, ErrVersion) {
		t.Errorf("future version: got %v, want ErrVersion", err)
	}
}

// TestStoreSaveLoad exercises the directory store: atomic save, per-key
// load, LoadAll ordering, and the not-found sentinel.
func TestStoreSaveLoad(t *testing.T) {
	snap, _, _ := testSnapshot(t)
	st := NewStore(filepath.Join(t.TempDir(), "snaps"))

	if _, err := st.Load(snap.Selection, snap.Metric, snap.Model); !errors.Is(err, ErrNotFound) {
		t.Fatalf("load before save: got %v, want ErrNotFound", err)
	}
	if err := st.Save(snap); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load(snap.Selection, snap.Metric, snap.Model)
	if err != nil {
		t.Fatal(err)
	}
	if got.KeyString() != snap.KeyString() {
		t.Errorf("loaded key %q, want %q", got.KeyString(), snap.KeyString())
	}

	// A second key becomes a second file; LoadAll returns both.
	other := *snap
	other.Model = "Regression"
	if err := st.Save(&other); err != nil {
		t.Fatal(err)
	}
	// Overwriting a key keeps one file.
	if err := st.Save(snap); err != nil {
		t.Fatal(err)
	}
	snaps, errs := st.LoadAll()
	if len(errs) != 0 {
		t.Fatalf("LoadAll errors: %v", errs)
	}
	if len(snaps) != 2 {
		t.Fatalf("LoadAll returned %d snapshots, want 2", len(snaps))
	}

	// No temp files left behind.
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ext) {
			t.Errorf("stray file %s left in store", e.Name())
		}
	}
}

// TestLoadAllSkipsCorruptFiles plants a corrupt snapshot beside a good one
// and asserts the good one still loads while the bad one is reported — a
// single rotten file must not prevent warm restart.
func TestLoadAllSkipsCorruptFiles(t *testing.T) {
	snap, _, _ := testSnapshot(t)
	st := NewStore(t.TempDir())
	if err := st.Save(snap); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st.Dir(), "rotten"+ext), []byte("wpredsnap v1 zz\n{"), 0o644); err != nil {
		t.Fatal(err)
	}
	snaps, errs := st.LoadAll()
	if len(snaps) != 1 {
		t.Errorf("got %d good snapshots, want 1", len(snaps))
	}
	if len(errs) != 1 || !errors.Is(errs[0], ErrCorrupt) {
		t.Errorf("corrupt file not reported as ErrCorrupt: %v", errs)
	}
}

// TestSuiteHashOrderIndependent asserts the suite hash ignores load order
// but catches any value change.
func TestSuiteHashOrderIndependent(t *testing.T) {
	refs := testRefs(t)
	h1, err := SuiteHash(refs)
	if err != nil {
		t.Fatal(err)
	}
	rev := make([]*telemetry.Experiment, len(refs))
	for i, e := range refs {
		rev[len(refs)-1-i] = e
	}
	h2, err := SuiteHash(rev)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("hash depends on order: %s vs %s", h1, h2)
	}
	mutated := refs[0].Clone()
	mutated.Throughput++
	h3, err := SuiteHash(append([]*telemetry.Experiment{mutated}, refs[1:]...))
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Error("hash missed a value change")
	}
}

// TestEncodeRejectsEmptyState asserts Encode refuses to write a snapshot
// that could never restore.
func TestEncodeRejectsEmptyState(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, &Snapshot{Selection: "a", Metric: "b", Model: "c"}); err == nil {
		t.Error("encoding an empty state should fail")
	}
}

// TestStorePathStable pins the content-addressed file naming: two daemons
// sharing a directory must agree on the file for a key.
func TestStorePathStable(t *testing.T) {
	a := NewStore("/x").Path("RFE LogReg", "L2,1", "SVM")
	b := NewStore("/x").Path("RFE LogReg", "L2,1", "SVM")
	if a != b {
		t.Errorf("path not stable: %s vs %s", a, b)
	}
	c := NewStore("/x").Path("RFE LogReg", "L2,1", "Regression")
	if a == c {
		t.Error("distinct keys share a path")
	}
	if fmt.Sprintf("%s", filepath.Ext(a)) != ext {
		t.Errorf("path %s missing %s suffix", a, ext)
	}
}

// TestCommittedSnapshotReencodesByteIdentical pins the snapshot byte
// format: the committed valid fuzz seed must decode and re-encode to the
// same bytes, so a change to the payload's Go types cannot silently change
// what older daemons wrote or newer ones read.
func TestCommittedSnapshotReencodesByteIdentical(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeSnapshot", "valid"))
	if err != nil {
		t.Fatal(err)
	}
	// The corpus file is "go test fuzz v1\n[]byte(<Go string literal>)".
	_, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	if !ok || !strings.HasPrefix(lit, "[]byte(") || !strings.HasSuffix(lit, ")") {
		t.Fatalf("unexpected corpus file layout: %.40q", raw)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Decode(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != data {
		i := 0
		for i < len(got) && i < len(data) && got[i] == data[i] {
			i++
		}
		t.Fatalf("re-encoded snapshot differs from the committed seed at byte %d of %d (got %d bytes)", i, len(data), len(got))
	}
}
