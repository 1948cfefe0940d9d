package baoserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"bao/internal/core"
	"bao/internal/guard"
	"bao/internal/obs"
)

// refSnapshots is the experience log's snapshot path as it stood before
// snapshots went through guard's checkpoint store, kept as the oracle:
// the log named, listed, read, fell back past, wrote and verified, and
// pruned its snapshot files itself. The bodies below are that code with
// the receiver narrowed to the snapshot state; only identifiers were
// renamed, and the LogOptions.ModelGen hook the snapshot sampled became
// the modelGen field (nil here, as no caller set it).
type refSnapshots struct {
	path     string
	o        *obs.Observer
	opt      LogOptions
	modelGen func() uint64

	snapSeq       uint64
	snapModelGen  uint64
	snapFallbacks uint64
	shadow        []core.Experience
	shadowCrit    map[string][]core.Experience
	lastSnapSeq   uint64
	snaps         uint64
	snapErrs      uint64
	snapN         int
}

type refSnapshotPayload struct {
	Window   []core.Experience            `json:"window"`
	Critical map[string][]core.Experience `json:"critical,omitempty"`
	ModelGen uint64                       `json:"model_gen,omitempty"`
}

func refSnapName(path string, seq uint64) string {
	return fmt.Sprintf("%s%s%016d", path, snapInfix, seq)
}

// refListLogFiles scans the log's directory for its sealed segments and
// snapshots, sorted ascending by ordinal/sequence.
func refListLogFiles(path string) (segs, snaps []segmentInfo, err error) {
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		return nil, nil, fmt.Errorf("baoserver: list experience log dir: %w", err)
	}
	base := filepath.Base(path)
	for _, e := range entries {
		name := e.Name()
		full := filepath.Join(filepath.Dir(path), name)
		if n, ok := refParseOrdinal(name, base+segInfix); ok {
			segs = append(segs, segmentInfo{name: full, ord: n})
		} else if n, ok := refParseOrdinal(name, base+snapInfix); ok {
			snaps = append(snaps, segmentInfo{name: full, ord: n})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].ord < segs[j].ord })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].ord < snaps[j].ord })
	return segs, snaps, nil
}

func refParseOrdinal(name, prefix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimPrefix(name, prefix), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// refReadSnapshot loads and integrity-checks one snapshot file.
func refReadSnapshot(name string) (refSnapshotPayload, uint64, error) {
	var p refSnapshotPayload
	data, err := os.ReadFile(name)
	if err != nil {
		return p, 0, err
	}
	seq, payload, err := guard.DecodeFrame(snapMagic, data)
	if err != nil {
		return p, 0, err
	}
	if err := json.Unmarshal(payload, &p); err != nil {
		return p, 0, err
	}
	return p, seq, nil
}

// refOpen is the snapshot half of the old open: the fallback loop, then
// the open-time prune.
func refOpen(path string, opt LogOptions) (*refSnapshots, error) {
	l := &refSnapshots{path: path, opt: opt, shadowCrit: make(map[string][]core.Experience)}
	_, snaps, err := refListLogFiles(l.path)
	if err != nil {
		return nil, err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		p, seq, serr := refReadSnapshot(snaps[i].name)
		if serr != nil {
			l.snapFallbacks++
			if l.o != nil {
				l.o.LogSnapshotErrs.Inc()
				l.o.Emit(obs.Event{Kind: obs.EventExplogSnapshotError,
					Detail: fmt.Sprintf("recovery fell back past %s: %v", filepath.Base(snaps[i].name), serr)})
			}
			continue
		}
		l.snapSeq = seq
		l.snapModelGen = p.ModelGen
		l.shadow = p.Window
		if over := len(l.shadow) - l.opt.WindowCap; over > 0 {
			l.shadow = l.shadow[over:]
		}
		if p.Critical != nil {
			l.shadowCrit = p.Critical
		}
		break
	}
	l.lastSnapSeq = l.snapSeq
	l.pruneSnapshots()
	return l, nil
}

// compact is the old Compact's snapshot write for a window the caller
// captured at lastSeq: encode, apply the fault script, write atomically,
// read back and verify, then advance the anchor and prune.
func (l *refSnapshots) compact(lastSeq uint64, window []core.Experience, crit map[string][]core.Experience) error {
	l.snapN++
	snapOrd := l.snapN

	var gen uint64
	if l.modelGen != nil {
		gen = l.modelGen()
	}
	payload, err := json.Marshal(refSnapshotPayload{Window: window, Critical: crit, ModelGen: gen})
	if err != nil {
		return l.snapshotFailed(fmt.Errorf("baoserver: encode snapshot: %w", err))
	}
	frame := guard.EncodeFrame(snapMagic, lastSeq, payload)
	name := refSnapName(l.path, lastSeq)
	ft := l.opt.Fault
	if ft != nil && ft.FailSnapshotWrite > 0 && snapOrd == ft.FailSnapshotWrite {
		return l.snapshotFailed(errors.New("baoserver: injected snapshot write failure"))
	}
	if ft != nil && ft.CorruptSnapshot > 0 && snapOrd == ft.CorruptSnapshot {
		frame = append([]byte(nil), frame...)
		frame[len(frame)-1] ^= 0xff
	}
	if err := guard.WriteFileAtomic(filepath.Dir(name), filepath.Base(name), frame); err != nil {
		return l.snapshotFailed(fmt.Errorf("baoserver: write snapshot: %w", err))
	}
	// Verify before deleting anything the snapshot covers: a snapshot
	// that cannot be read back must never orphan the segments that still
	// hold its content.
	if data, rerr := os.ReadFile(name); rerr != nil {
		return l.snapshotFailed(fmt.Errorf("baoserver: verify snapshot: %w", rerr))
	} else if _, _, derr := guard.DecodeFrame(snapMagic, data); derr != nil {
		return l.snapshotFailed(fmt.Errorf("baoserver: verify snapshot: %w", derr))
	}

	if lastSeq > l.lastSnapSeq {
		l.lastSnapSeq = lastSeq
	}
	l.snaps++
	l.pruneSnapshots()
	return nil
}

func (l *refSnapshots) snapshotFailed(err error) error {
	l.snapErrs++
	return err
}

// pruneSnapshots removes snapshot files beyond the keep bound, oldest
// first, never removing the current anchor. Best effort.
func (l *refSnapshots) pruneSnapshots() {
	_, snaps, err := refListLogFiles(l.path)
	if err != nil || len(snaps) <= snapshotKeep {
		return
	}
	anchor := l.lastSnapSeq
	for _, sn := range snaps[:len(snaps)-snapshotKeep] {
		if sn.ord == anchor {
			continue
		}
		os.Remove(sn.name) //nolint:errcheck // best effort
	}
}

// snapshotFiles maps each snapshot file (and snapshot temp file) beside
// the log at path to its bytes.
func snapshotFiles(t *testing.T, path string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Base(path) + snapInfix
	out := map[string]string{}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), base) || strings.HasPrefix(e.Name(), "."+base) {
			data, err := os.ReadFile(filepath.Join(filepath.Dir(path), e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = string(data)
		}
	}
	return out
}

// corruptions are the on-disk damage a crash or bit rot does to a
// snapshot that both paths must roll back past identically. (A frame
// copied under another snapshot's name is left out on purpose: the old
// path accepted it under its header's sequence; the store rejects it,
// as it always did for checkpoints.)
var corruptions = []func([]byte) []byte{
	func(b []byte) []byte { // bit rot in the last byte
		b = append([]byte(nil), b...)
		if len(b) > 0 {
			b[len(b)-1] ^= 0xff
		}
		return b
	},
	func(b []byte) []byte { return b[:len(b)/2] },                           // truncated
	func([]byte) []byte { return []byte("garbage") },                        // not a frame
	func(b []byte) []byte { return append([]byte("WRONGMG\n"), b...) },      // foreign bytes in front
	func(b []byte) []byte { return append(append([]byte(nil), b...), '!') }, // trailing byte
}

// TestSnapshotStoreMatchesReference runs the log's snapshot path and the
// old one side by side over generated scripts of appends, compactions
// (some scripted to land corrupt or fail before writing), on-disk
// corruption and reopens. After every step both directories must hold
// the same snapshot files byte for byte; after every reopen both must
// anchor on the same snapshot with the same fallback count, and the
// log's recovered window and critical registry must equal the oracle's
// snapshot plus every record it does not cover.
func TestSnapshotStoreMatchesReference(t *testing.T) {
	var fallbacks, failed int
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			fb, fl := snapshotDifferential(t, seed)
			fallbacks, failed = fallbacks+fb, failed+fl
		})
	}
	t.Logf("%d fallback(s), %d failed compaction(s) over 12 scripts", fallbacks, failed)
	if fallbacks == 0 || failed == 0 {
		t.Fatalf("the scripts exercised %d fallback(s) and %d failed compaction(s); want both", fallbacks, failed)
	}
}

// snapshotDifferential runs one generated script and returns how many
// snapshots reopens fell back past and how many compactions failed.
func snapshotDifferential(t *testing.T, seed int64) (fallbacks, failed int) {
	rng := rand.New(rand.NewSource(seed))
	pathA := filepath.Join(t.TempDir(), "bao.explog")
	pathB := filepath.Join(t.TempDir(), "bao.explog")
	const windowCap = 24
	seq := 0

	session := func() LogOptions {
		ft := &DiskFault{}
		if rng.Intn(2) == 0 {
			ft.CorruptSnapshot = 1 + rng.Intn(4)
		}
		if rng.Intn(3) == 0 {
			ft.FailSnapshotWrite = 1 + rng.Intn(4)
		}
		return LogOptions{SegmentBytes: 1 << 20, WindowCap: windowCap, Fault: ft, ManualCompact: true}
	}
	open := func(opt LogOptions) (*ExperienceLog, *refSnapshots) {
		t.Helper()
		a, err := OpenLog(pathA, opt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := refOpen(pathB, opt)
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	check := func(step string, a *ExperienceLog, b *refSnapshots) {
		t.Helper()
		if fa, fb := snapshotFiles(t, pathA), snapshotFiles(t, pathB); !reflect.DeepEqual(fa, fb) {
			t.Fatalf("%s: snapshot files diverge:\nstore %v\nref   %v", step, keys(fa), keys(fb))
		}
		if st := a.Stats(); st.SnapshotSeq != b.lastSnapSeq || a.snapErrs != b.snapErrs || st.Snapshots != b.snaps {
			t.Fatalf("%s: store anchor/errors/written %d/%d/%d, ref %d/%d/%d",
				step, st.SnapshotSeq, a.snapErrs, st.Snapshots, b.lastSnapSeq, b.snapErrs, b.snaps)
		}
	}

	a, b := open(session())
	for step := 0; step < 40; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // appends, then a compaction
			n := 1 + rng.Intn(6)
			for i := 0; i < n; i++ {
				seq++
				var err error
				if rng.Intn(5) == 0 {
					err = a.AppendCritical(fmt.Sprintf("crit-%d", rng.Intn(3)),
						[]core.Experience{{Tree: logTree(float64(seq)), Secs: float64(seq), ArmID: 1}})
				} else {
					err = a.AppendExperience(core.Experience{Tree: logTree(float64(seq)), Secs: 0.01 * float64(seq), ArmID: seq % 3, Key: "q"})
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			forceSeal(t, a)
			a.mu.Lock()
			lastSeq := a.nextSeq - 1
			window := append([]core.Experience(nil), a.shadow...)
			crit := make(map[string][]core.Experience, len(a.shadowCrit))
			for k, v := range a.shadowCrit {
				crit[k] = v
			}
			a.mu.Unlock()
			errA := a.Compact()
			errB := b.compact(lastSeq, window, crit)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("step %d: compaction outcome diverges: store %v, ref %v", step, errA, errB)
			}
			if errA != nil {
				failed++
			}
		case op < 6: // damage a snapshot on disk, the same one in both
			names := keys(snapshotFiles(t, pathA))
			if len(names) == 0 {
				continue
			}
			name := names[rng.Intn(len(names))]
			corrupt := corruptions[rng.Intn(len(corruptions))]
			for _, dir := range []string{filepath.Dir(pathA), filepath.Dir(pathB)} {
				data, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name), corrupt(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		default: // restart
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			// The frames on disk are the segments' and tail's, which both
			// paths handle with the same code: the oracle's recovered state
			// is its snapshot plus every frame it does not cover.
			var frames []logRecord
			segs, err := listSegments(pathA)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range append(segNames(segs), pathA) {
				data, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				scanFrames(data, func(rec logRecord) { frames = append(frames, rec) })
			}
			a, b = open(session())
			if a.snapSeq != b.snapSeq || a.snapFallbacks != b.snapFallbacks {
				t.Fatalf("step %d: store anchored on %d after %d fallback(s), ref on %d after %d",
					step, a.snapSeq, a.snapFallbacks, b.snapSeq, b.snapFallbacks)
			}
			fallbacks += int(a.snapFallbacks)
			want := &ExperienceLog{opt: LogOptions{WindowCap: windowCap}, shadow: b.shadow, shadowCrit: b.shadowCrit}
			for _, rec := range frames {
				if rec.Seq > b.snapSeq {
					want.applyShadowLocked(rec)
				}
			}
			if !reflect.DeepEqual(a.shadow, want.shadow) || !reflect.DeepEqual(a.shadowCrit, want.shadowCrit) {
				t.Fatalf("step %d: recovered window or critical registry differs from the oracle's snapshot plus tail", step)
			}
		}
		check(fmt.Sprintf("step %d", step), a, b)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	return fallbacks, failed
}

func segNames(segs []segmentInfo) []string {
	out := make([]string, len(segs))
	for i, sg := range segs {
		out[i] = sg.name
	}
	return out
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestReferenceAcceptsMislabelledSnapshot pins the one rule the store
// adds to the old path: a snapshot frame whose header names another
// sequence than its file name is rolled back past, where the old path
// loaded it under the header's sequence.
func TestReferenceAcceptsMislabelledSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bao.explog")
	opts := LogOptions{SegmentBytes: 1 << 20, WindowCap: 64, ManualCompact: true}
	l, err := OpenLog(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	appendSeg(t, l, 0, 5)
	forceSeal(t, l)
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	appendSeg(t, l, 5, 5)
	forceSeal(t, l)
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(refSnapName(path, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(refSnapName(path, 10), old, 0o644); err != nil {
		t.Fatal(err)
	}
	ref, err := refOpen(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.snapSeq != 5 || ref.snapFallbacks != 0 {
		t.Fatalf("old path: anchor %d after %d fallback(s), want 5 after 0", ref.snapSeq, ref.snapFallbacks)
	}
	l2, err := OpenLog(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.snapSeq != 5 || l2.snapFallbacks != 1 {
		t.Fatalf("store: anchor %d after %d fallback(s), want 5 after 1", l2.snapSeq, l2.snapFallbacks)
	}
	if !bytes.Equal(old, []byte(snapshotFiles(t, path)[filepath.Base(refSnapName(path, 10))])) {
		t.Fatal("the mislabelled snapshot was pruned; the store keeps two names")
	}
}
