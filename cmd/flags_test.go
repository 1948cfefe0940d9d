// Package cmd holds checks that span the binaries under it.
package cmd

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// flagSurface is every flag each binary defines. Adding a knob means
// editing this list: TestFlagSurface compares it with the binary's -h,
// and TestDocumentedInvocations holds the docs to it.
var flagSurface = map[string][]string{
	"baobench": {"exp", "list", "listen", "queries", "query-timeout", "scale", "seed"},
	"baoserver": {"checkpoint-dir", "eventlog", "explog", "explog-segment-bytes", "guard", "infer-batch",
		"listen", "max-inflight", "plan-cache", "plan-cache-bytes", "plan-cache-size", "query-timeout",
		"scale", "timeout", "train", "workload"},
	"baoshell": {"explog", "explog-segment-bytes", "guard", "listen", "query-timeout", "scale", "train", "workload"},
	"baorouter": {"default-tenant", "explog-segment-bytes", "health-interval", "listen", "local",
		"max-resident", "max-resident-bytes", "shards", "tenant-dir"},
}

// binDir holds the four binaries, built once by TestMain (empty under -short).
var binDir string

func TestMain(m *testing.M) {
	os.Exit(func() int {
		dir, err := os.MkdirTemp("", "bao-cmd-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		if flag.Parse(); !testing.Short() {
			for name := range flagSurface {
				if out, err := exec.Command("go", "build", "-o", filepath.Join(dir, name), "./"+name).CombinedOutput(); err != nil {
					fmt.Fprintf(os.Stderr, "build %s: %v\n%s", name, err, out)
					return 1
				}
			}
			binDir = dir
		}
		return m.Run()
	}())
}

// TestBinariesRejectNegativeSegmentBytes requires every out-of-range
// value of a shared flag to fail at flag parsing — exit 1 with a message
// naming the flag, before any dataset is loaded or file opened. (A
// negative segment bound used to select a second on-disk log layout, and
// baorouter opens tenant logs lazily, so without the parse-time check it
// would start and then fail every tenant's first query; baobench -queries
// -5 used to die in makeslice with a stack trace, -queries 0 printed NaN
// rows and exited 0, and a non-positive -scale loaded silently.)
func TestBinariesRejectNegativeSegmentBytes(t *testing.T) {
	if binDir == "" {
		t.Skip("needs the built binaries")
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"baoserver", []string{"-explog-segment-bytes=-1", "-explog", filepath.Join(dir, "s.explog")}, "-explog-segment-bytes must be >= 0"},
		{"baoshell", []string{"-explog-segment-bytes=-1", "-explog", filepath.Join(dir, "sh.explog")}, "-explog-segment-bytes must be >= 0"},
		{"baorouter", []string{"-explog-segment-bytes=-1", "-local", "1", "-tenant-dir", dir}, "-explog-segment-bytes must be >= 0"},
		{"baobench", []string{"-exp", "fig7", "-queries", "-5"}, "-queries must be >= 1"},
		{"baobench", []string{"-exp", "fig7", "-queries", "0"}, "-queries must be >= 1"},
		{"baobench", []string{"-exp", "fig1", "-scale", "0"}, "-scale must be > 0"},
		{"baoserver", []string{"-scale", "-1"}, "-scale must be > 0"},
		{"baoshell", []string{"-scale", "0"}, "-scale must be > 0"},
		{"baoserver", []string{"-train", "-1"}, "-train must be >= 0"},
		{"baoshell", []string{"-train", "-1"}, "-train must be >= 0"},
	} {
		out, err := exec.Command(filepath.Join(binDir, tc.name), tc.args...).CombinedOutput()
		exit, ok := err.(*exec.ExitError)
		if !ok || exit.ExitCode() != 1 {
			t.Fatalf("%s %v: err = %v, want exit status 1\n%s", tc.name, tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Fatalf("%s %v: output does not name the flag (%q):\n%s", tc.name, tc.args, tc.want, out)
		}
		if strings.Contains(string(out), "loading") || strings.Contains(string(out), "goroutine ") || strings.Contains(string(out), "== ") {
			t.Fatalf("%s %v: loaded a dataset, started an experiment or dumped a stack before rejecting the flag:\n%s", tc.name, tc.args, out)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.explog*")); len(left) != 0 {
		t.Fatalf("rejected runs left log files behind: %v", left)
	}
}

// TestFlagSurface pins each binary's flag set: -h lists exactly the
// names checked in above, so a new knob is a deliberate edit here.
func TestFlagSurface(t *testing.T) {
	if binDir == "" {
		t.Skip("needs the built binaries")
	}
	flagLine := regexp.MustCompile(`(?m)^  -([a-z][a-z0-9-]*)`)
	for name, want := range flagSurface {
		out, err := exec.Command(filepath.Join(binDir, name), "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v\n%s", name, err, out)
		}
		var got []string
		for _, m := range flagLine.FindAllStringSubmatch(string(out), -1) {
			got = append(got, m[1])
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s -h lists\n  %v\nflagSurface says\n  %v", name, got, want)
		}
	}
}

// TestDocumentedInvocations requires every `go run ./cmd/<bin> ...` and
// `/tmp/<bin> ...` command line in the docs to name only flags that
// binary defines.
func TestDocumentedInvocations(t *testing.T) {
	invocation := regexp.MustCompile("(?:go run \\./cmd/|/tmp/)(bao(?:bench|server|shell|router))\\b([^`#|\\n]*)")
	found := 0
	for _, doc := range []string{"../README.md", "../DESIGN.md", "../EXPERIMENTS.md", "../.claude/skills/verify/SKILL.md"} {
		for _, line := range logicalLines(t, doc) {
			for _, m := range invocation.FindAllStringSubmatch(line, -1) {
				found++
				for _, arg := range strings.Fields(m[2]) {
					if len(arg) < 2 || arg[0] != '-' || arg[1] >= '0' && arg[1] <= '9' {
						continue
					}
					flagName, _, _ := strings.Cut(strings.TrimLeft(arg, "-"), "=")
					if !slices.Contains(flagSurface[m[1]], flagName) {
						t.Errorf("%s: %q passes -%s, which %s does not define", doc, strings.TrimSpace(m[0]), flagName, m[1])
					}
				}
			}
		}
	}
	if found < 10 {
		t.Fatalf("found only %d documented invocations; the docs or the pattern moved", found)
	}
}

// logicalLines reads a Markdown file as command lines: a trailing
// backslash or an inline code span left open joins a line to the next.
func logicalLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	open := false
	for _, l := range strings.Split(string(data), "\n") {
		cont := strings.HasSuffix(l, "\\")
		l = strings.TrimSuffix(l, "\\")
		if open {
			lines[len(lines)-1] += " " + strings.TrimSpace(l)
		} else {
			lines = append(lines, l)
		}
		last := lines[len(lines)-1]
		open = cont || !strings.HasPrefix(strings.TrimSpace(last), "```") && strings.Count(last, "`")%2 == 1
	}
	return lines
}
