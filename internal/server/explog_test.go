package baoserver

import (
	"os"
	"path/filepath"
	"testing"

	"bao/internal/core"
	"bao/internal/nn"
)

// logTree builds a tiny valid tree so logged experiences have real
// payloads (the log serializes whole plan trees).
func logTree(v float64) *nn.Tree {
	t := nn.NewTree(3, 4)
	t.Left[0], t.Right[0] = 1, 2
	for i := 0; i < t.N; i++ {
		t.Row(i)[0] = v + float64(i)
	}
	return t
}

// replayed opens the log at path and replays it into a fresh optimizer.
func replayed(t *testing.T, path string) (*ExperienceLog, *core.Bao) {
	t.Helper()
	l, err := OpenExperienceLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	b := newTestBao(t, nil)
	l.Replay(b)
	return l, b
}

func appendN(t *testing.T, path string, n int) {
	t.Helper()
	l, err := OpenExperienceLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		e := core.Experience{Tree: logTree(float64(i)), Secs: 0.01 * float64(i+1), ArmID: i % 3, Key: "q"}
		if err := l.AppendExperience(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestExperienceLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bao.explog")
	appendN(t, path, 10)
	l, b := replayed(t, path)
	n, skipped := l.Replayed()
	if n != 10 || skipped != 0 {
		t.Fatalf("replayed=%d skipped=%d, want 10/0", n, skipped)
	}
	exps := b.Experiences()
	if len(exps) != 10 {
		t.Fatalf("%d experiences replayed into the optimizer, want 10", len(exps))
	}
	for i, e := range exps {
		if e.Secs != 0.01*float64(i+1) || e.ArmID != i%3 || e.Key != "q" {
			t.Fatalf("experience %d round-tripped wrong: %+v", i, e)
		}
		if e.Tree == nil || e.Tree.N != 3 || e.Tree.Row(0)[0] != float64(i) {
			t.Fatalf("experience %d tree corrupted: %+v", i, e.Tree)
		}
	}
}

// A crash mid-append leaves a torn final frame: reopening must replay the
// N-1 intact records, count one skip, truncate the tail, and accept new
// appends on the clean boundary.
func TestExperienceLogCrashRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bao.explog")
	appendN(t, path, 8)
	// Tear the final record: chop off its last 7 bytes.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	l, err := OpenExperienceLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, skipped := l.Replayed()
	if n != 7 || skipped != 1 {
		t.Fatalf("after torn tail: replayed=%d skipped=%d, want 7/1", n, skipped)
	}
	// The torn bytes must be gone and the log writable again.
	if err := l.AppendExperience(core.Experience{Tree: logTree(99), Secs: 9.9}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, b := replayed(t, path)
	n, skipped = l2.Replayed()
	if n != 8 || skipped != 0 {
		t.Fatalf("after recovery append: replayed=%d skipped=%d, want 8/0", n, skipped)
	}
	if exps := b.Experiences(); len(exps) != 8 || exps[7].Secs != 9.9 {
		t.Fatalf("post-recovery record lost: %+v", exps)
	}
}

// A flipped bit corrupts one record's checksum; the frames after it are
// intact and must survive the scan.
func TestExperienceLogSkipsCorruptRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bao.explog")
	appendN(t, path, 5)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside the second record (past the first frame).
	frame := int(uint32(data[0]) | uint32(data[1])<<8 | uint32(data[2])<<16 | uint32(data[3])<<24)
	pos := frameHeaderLen + frame + frameHeaderLen + 10
	data[pos] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l, err := OpenExperienceLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	replayed, skipped := l.Replayed()
	if replayed != 4 || skipped != 1 {
		t.Fatalf("replayed=%d skipped=%d, want 4/1", replayed, skipped)
	}
}

// Critical-set records restore the triggered-exploration registry.
func TestExperienceLogCriticalRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bao.explog")
	l, err := OpenExperienceLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	exps := []core.Experience{
		{Tree: logTree(1), Secs: 0.5, ArmID: 0, Key: "crit-q", Critical: true},
		{Tree: logTree(2), Secs: 0.1, ArmID: 1, Key: "crit-q", Critical: true},
	}
	if err := l.AppendCritical("crit-q", exps); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, b := replayed(t, path)
	crit := b.CriticalSets()
	if len(crit) != 1 || len(b.Experiences()) != 0 {
		t.Fatalf("critical record mangled: %d critical sets, %d window experiences", len(crit), len(b.Experiences()))
	}
	if got := crit["crit-q"]; len(got) != 2 || got[1].Secs != 0.1 || !got[0].Critical {
		t.Fatalf("critical experiences mangled: %+v", got)
	}
}
