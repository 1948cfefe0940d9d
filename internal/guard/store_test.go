package guard

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// ckptName renders a checkpoint generation's file name, so tests can
// corrupt a specific generation on disk.
func ckptName(gen uint64) string { return GenName(ckptPrefix, gen, ckptSuffix) }

// dirNames lists a directory's file names, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

func TestGenNameRoundTrip(t *testing.T) {
	for _, c := range []struct{ prefix, suffix string }{{"model-", ".ckpt"}, {"bao.explog.snap-", ""}, {"bao.explog.seg-", ""}} {
		name := GenName(c.prefix, 42, c.suffix)
		if g, ok := ParseGenName(name, c.prefix, c.suffix); !ok || g != 42 {
			t.Fatalf("ParseGenName(%q) = %d, %v", name, g, ok)
		}
	}
	if got := GenName("model-", 7, ".ckpt"); got != "model-0000000000000007.ckpt" {
		t.Fatalf("checkpoint name = %q", got)
	}
	for _, bad := range []string{"model-.ckpt", "model-x.ckpt", "model-7.ckpt", "model-0000000000000007", "odel-0000000000000007.ckpt",
		"model-+000000000000007.ckpt", "model-0000000000000007.ckpt.tmp", "model-00000000000000007.ckpt"} {
		if g, ok := ParseGenName(bad, "model-", ".ckpt"); ok {
			t.Fatalf("ParseGenName(%q) accepted generation %d", bad, g)
		}
	}
	if _, ok := ParseGenName("aba", "ab", "ba"); ok {
		t.Fatal("overlapping prefix and suffix parsed as a generation")
	}
}

// TestFrameStoreSweepsOnlyOwnTemps: a store sharing its directory removes
// the temp leftovers of its own interrupted writes at open and nothing
// else.
func TestFrameStoreSweepsOnlyOwnTemps(t *testing.T) {
	dir := t.TempDir()
	own := ".bao.explog.snap-0000000000000007-123456.tmp"
	foreign := []string{"other.tmp", ".bao.explog.seg-0000000000000001-1.tmp", ".other.snap-0000000000000007-1.tmp", "bao.explog"}
	for _, name := range append([]string{own}, foreign...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := OpenFrameStore(dir, "bao.explog.snap-", testMagic, 2)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(foreign)
	if got := dirNames(t, dir); !reflect.DeepEqual(got, foreign) {
		t.Fatalf("after open: %v, want %v", got, foreign)
	}
	if st.Generation() != 0 {
		t.Fatalf("generation = %d, want 0", st.Generation())
	}
}

// TestWriteFrameVerifies: a frame that does not read back — a corrupt
// payload or a header naming another generation — is a failed write; it
// stays on disk, deletes nothing, and Recover rolls back past it naming
// the file and the reason.
func TestWriteFrameVerifies(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFrameStore(dir, "log.snap-", testMagic, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteFrame(1, EncodeFrame(testMagic, 1, []byte("one"))); err != nil {
		t.Fatal(err)
	}
	corrupt := EncodeFrame(testMagic, 2, []byte("two"))
	corrupt[len(corrupt)-1] ^= 0xff
	if err := st.WriteFrame(2, corrupt); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt frame write: %v, want a checksum failure", err)
	}
	if err := st.WriteFrame(3, EncodeFrame(testMagic, 1, []byte("three"))); err == nil || !strings.Contains(err.Error(), "header names generation 1") {
		t.Fatalf("mislabelled frame write: %v, want a header mismatch", err)
	}
	want := []string{"log.snap-0000000000000001", "log.snap-0000000000000002", "log.snap-0000000000000003"}
	if got := dirNames(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("files = %v, want %v (failed writes stay, nothing pruned)", got, want)
	}

	st2, err := OpenFrameStore(dir, "log.snap-", testMagic, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got string
	gen, skipped, err := st2.Recover(func(p []byte) error { got = string(p); return nil })
	if err != nil || gen != 1 || got != "one" {
		t.Fatalf("recover = (%d, %q, %v), want (1, one, nil)", gen, got, err)
	}
	if len(skipped) != 2 || !strings.HasPrefix(skipped[0].Error(), want[2]+": ") || !strings.HasPrefix(skipped[1].Error(), want[1]+": ") {
		t.Fatalf("skipped = %+v, want generations 3 then 2", skipped)
	}
	// Pruning keeps two names but never the generation that loaded.
	if got := dirNames(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("after recover: %v, want %v (the anchor survives the keep bound)", got, want)
	}
	if err := st2.WriteFrame(4, EncodeFrame(testMagic, 4, []byte("four"))); err != nil {
		t.Fatal(err)
	}
	if got, want := dirNames(t, dir), want[2:]; !reflect.DeepEqual(got, append(want, "log.snap-0000000000000004")) {
		t.Fatalf("after a verified write: %v, want generations 3 and 4", got)
	}
}
