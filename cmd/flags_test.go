// Package cmd holds checks that span the binaries under it.
package cmd

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBinariesRejectNegativeSegmentBytes builds each binary that takes
// -explog-segment-bytes and requires a negative value to fail at flag
// parsing — exit 1 with a message naming the flag, before any dataset is
// loaded or file opened. (A negative bound used to select a second
// on-disk log layout; baorouter opens tenant logs lazily, so without the
// parse-time check it would start and then fail every tenant's first
// query.)
func TestBinariesRejectNegativeSegmentBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three binaries")
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"baoserver", []string{"-explog-segment-bytes=-1", "-explog", filepath.Join(dir, "s.explog")}},
		{"baoshell", []string{"-explog-segment-bytes=-1", "-explog", filepath.Join(dir, "sh.explog")}},
		{"baorouter", []string{"-explog-segment-bytes=-1", "-local", "1", "-tenant-dir", dir}},
	} {
		bin := filepath.Join(dir, tc.name)
		if out, err := exec.Command("go", "build", "-o", bin, "./"+tc.name).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tc.name, err, out)
		}
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		exit, ok := err.(*exec.ExitError)
		if !ok || exit.ExitCode() != 1 {
			t.Fatalf("%s %v: err = %v, want exit status 1\n%s", tc.name, tc.args, err, out)
		}
		if !strings.Contains(string(out), "-explog-segment-bytes must be >= 0") {
			t.Fatalf("%s: output does not name the flag:\n%s", tc.name, out)
		}
		if strings.Contains(string(out), "loading") {
			t.Fatalf("%s: loaded a dataset before rejecting the flag:\n%s", tc.name, out)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.explog*")); len(left) != 0 {
		t.Fatalf("rejected runs left log files behind: %v", left)
	}
}
