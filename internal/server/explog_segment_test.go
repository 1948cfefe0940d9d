package baoserver

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bao/internal/core"
)

// appendSeg appends n synthetic experiences to an already-open log,
// numbering Secs from base so streams are distinguishable across phases.
func appendSeg(t *testing.T, l *ExperienceLog, base, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		e := core.Experience{Tree: logTree(float64(base + i)), Secs: 0.01 * float64(base+i+1), ArmID: (base + i) % 3, Key: "q"}
		if err := l.AppendExperience(e); err != nil {
			t.Fatal(err)
		}
	}
}

// forceSeal rotates the active tail synchronously so tests control
// exactly which frames a compaction covers.
func forceSeal(t *testing.T, l *ExperienceLog) {
	t.Helper()
	l.mu.Lock()
	l.sealLocked()
	degraded := l.degraded
	l.mu.Unlock()
	if degraded {
		t.Fatal("forced seal degraded the log")
	}
}

func segFiles(t *testing.T, path, infix string) []string {
	t.Helper()
	matches, err := filepath.Glob(path + infix + "*")
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestExplogBoundedReplayPin pins the subsystem's contract: startup
// replay work depends only on what accumulated since the last snapshot,
// not on total history. Ten times the history, same replay count.
func TestExplogBoundedReplayPin(t *testing.T) {
	const k = 5
	for _, hist := range []int{50, 500} {
		path := filepath.Join(t.TempDir(), "bao.explog")
		opts := LogOptions{SegmentBytes: 1 << 20, WindowCap: 64, ManualCompact: true}
		l, err := OpenLog(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		appendSeg(t, l, 0, hist)
		forceSeal(t, l)
		if err := l.Compact(); err != nil {
			t.Fatalf("hist=%d compact: %v", hist, err)
		}
		if st := l.Stats(); st.SnapshotSeq != uint64(hist) {
			t.Fatalf("hist=%d snapshot seq = %d, want %d", hist, st.SnapshotSeq, hist)
		}
		appendSeg(t, l, hist, k)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		l2, err := OpenLog(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		replayed, skipped := l2.Replayed()
		if replayed != k || skipped != 0 {
			t.Fatalf("hist=%d: replayed=%d skipped=%d, want %d/0 — replay must be bounded by the tail, not history",
				hist, replayed, skipped, k)
		}
		if st := l2.Stats(); st.TailFrames != k {
			t.Fatalf("hist=%d: tail frames = %d, want %d", hist, st.TailFrames, k)
		}
		// The recovered window must still hold the full WindowCap tail of
		// history (from the snapshot), not just the k replayed frames.
		want := 64
		if hist+k < want {
			want = hist + k
		}
		if len(l2.shadow) != want {
			t.Fatalf("hist=%d: recovered window = %d, want %d", hist, len(l2.shadow), want)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExplogCorruptSnapshotFallback scripts a corrupt second snapshot:
// compaction must refuse to delete the segments it covers, and recovery
// must fall back to the prior snapshot, replay the longer tail, and land
// on learning state identical to an uncorrupted control run.
func TestExplogCorruptSnapshotFallback(t *testing.T) {
	run := func(fault *DiskFault) (*ExperienceLog, string, error) {
		path := filepath.Join(t.TempDir(), "bao.explog")
		opts := LogOptions{SegmentBytes: 1 << 20, WindowCap: 64, Fault: fault, ManualCompact: true}
		l, err := OpenLog(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		appendSeg(t, l, 0, 20)
		if err := l.AppendCritical("crit-q", []core.Experience{{Tree: logTree(99), Secs: 9.9, ArmID: 1, Key: "crit-q"}}); err != nil {
			t.Fatal(err)
		}
		forceSeal(t, l)
		if err := l.Compact(); err != nil { // snapshot 1: valid in both runs
			t.Fatal(err)
		}
		appendSeg(t, l, 20, 20)
		forceSeal(t, l)
		compactErr := l.Compact() // snapshot 2: corrupted in the faulted run
		appendSeg(t, l, 40, 5)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := OpenLog(path, LogOptions{SegmentBytes: 1 << 20, WindowCap: 64})
		if err != nil {
			t.Fatal(err)
		}
		return l2, path, compactErr
	}

	faulted, fpath, compactErr := run(&DiskFault{CorruptSnapshot: 2})
	defer faulted.Close()
	if compactErr == nil {
		t.Fatal("corrupted snapshot write reported no error")
	}
	// The corrupt snapshot landed on disk whole but failed verification,
	// so the segments it covered must have survived for recovery to use.
	if segs := segFiles(t, fpath, segInfix); len(segs) == 0 {
		t.Fatal("corrupt snapshot deleted the segments it failed to cover")
	}
	replayed, skipped := faulted.Replayed()
	if replayed != 25 { // seq 22..46: snapshot 1 covers the first 21 frames
		t.Fatalf("fallback replayed %d frames (skipped %d), want 25 (everything past snapshot 1)", replayed, skipped)
	}
	if st := faulted.Stats(); st.SnapshotErrors == 0 {
		t.Fatalf("fallback not counted: %+v", st)
	}

	control, _, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	if creplayed, _ := control.Replayed(); creplayed != 5 {
		t.Fatalf("control replayed %d, want 5", creplayed)
	}
	if !reflect.DeepEqual(faulted.shadow, control.shadow) {
		t.Fatalf("recovered windows diverge:\nfaulted %d exps\ncontrol %d exps", len(faulted.shadow), len(control.shadow))
	}
	if !reflect.DeepEqual(faulted.shadowCrit, control.shadowCrit) {
		t.Fatalf("recovered critical registries diverge: %v vs %v", faulted.shadowCrit, control.shadowCrit)
	}
}

// TestExplogCompactionCrashKill scripts the compactor dying before its
// snapshot lands: no snapshot file may exist, no segment may have been
// deleted, and recovery must replay everything.
func TestExplogCompactionCrashKill(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bao.explog")
	opts := LogOptions{SegmentBytes: 1 << 20, WindowCap: 64, Fault: &DiskFault{FailSnapshotWrite: 1}, ManualCompact: true}
	l, err := OpenLog(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	appendSeg(t, l, 0, 20)
	forceSeal(t, l)
	if err := l.Compact(); err == nil {
		t.Fatal("failed snapshot write reported no error")
	}
	if snaps := segFiles(t, path, snapInfix); len(snaps) != 0 {
		t.Fatalf("crashed compaction left snapshot files: %v", snaps)
	}
	if segs := segFiles(t, path, segInfix); len(segs) == 0 {
		t.Fatal("crashed compaction deleted its covered segments")
	}
	if st := l.Stats(); st.SnapshotErrors != 1 || st.SnapshotSeq != 0 {
		t.Fatalf("stats after crashed compaction: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenLog(path, LogOptions{SegmentBytes: 1 << 20, WindowCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if replayed, skipped := l2.Replayed(); replayed != 20 || skipped != 0 {
		t.Fatalf("replayed=%d skipped=%d after crashed compaction, want 20/0", replayed, skipped)
	}
}

// TestExplogTornAppendDegradeRestore scripts a torn write mid-append: the
// log degrades, the very next append probes, repairs the torn tail, and
// restores durability — and recovery later sees a clean log.
func TestExplogTornAppendDegradeRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bao.explog")
	opts := LogOptions{SegmentBytes: 1 << 20, WindowCap: 64, Fault: &DiskFault{TornAppendFrame: 3}}
	l, err := OpenLog(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	appendSeg(t, l, 0, 2)
	err = l.AppendExperience(core.Experience{Tree: logTree(2), Secs: 0.5, ArmID: 0})
	if err == nil {
		t.Fatal("torn append reported no error")
	}
	if !l.Degraded() {
		t.Fatal("torn append did not degrade the log")
	}
	// Next append is the reopen probe: repair truncates the torn bytes
	// and the triggering record itself is saved, not dropped.
	if err := l.AppendExperience(core.Experience{Tree: logTree(3), Secs: 0.6, ArmID: 1}); err != nil {
		t.Fatalf("probe append failed: %v", err)
	}
	if l.Degraded() {
		t.Fatal("successful probe did not restore durability")
	}
	st := l.Stats()
	if st.Dropped != 1 || st.ReopenProbes != 1 {
		t.Fatalf("dropped=%d probes=%d, want 1/1", st.Dropped, st.ReopenProbes)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenLog(path, LogOptions{SegmentBytes: 1 << 20, WindowCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if replayed, skipped := l2.Replayed(); replayed != 3 || skipped != 0 {
		t.Fatalf("replayed=%d skipped=%d, want 3/0 (torn frame repaired away)", replayed, skipped)
	}
}

// TestExplogFsyncFailureDegrades scripts an fsync failure: Sync degrades
// the log, and the next append probe restores it.
func TestExplogFsyncFailureDegrades(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bao.explog")
	l, err := OpenLog(path, LogOptions{SegmentBytes: 1 << 20, WindowCap: 64, Fault: &DiskFault{FailFsync: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendSeg(t, l, 0, 2)
	if err := l.Sync(); err == nil {
		t.Fatal("failed fsync reported no error")
	}
	if !l.Degraded() {
		t.Fatal("fsync failure did not degrade the log")
	}
	if err := l.AppendExperience(core.Experience{Tree: logTree(5), Secs: 0.7, ArmID: 2}); err != nil {
		t.Fatalf("probe append failed: %v", err)
	}
	if l.Degraded() {
		t.Fatal("probe did not restore durability")
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("post-restore sync: %v", err)
	}
}

// TestServerExplogENOSPCDegradedServing is the acceptance scenario: a
// scripted ENOSPC mid-append leaves the server serving — selections keep
// flowing, health stays live and ready with durability "degraded",
// dropped records are counted — and once space frees, a backoff probe
// restores durable appends. Run at two worker counts, the surviving logs
// must replay to byte-identical retrained models.
func TestServerExplogENOSPCDegradedServing(t *testing.T) {
	models := make(map[int][]byte)
	for _, workers := range []int{1, 4} {
		path := filepath.Join(t.TempDir(), "bao.explog")
		s := newTestServer(t, Config{
			LogPath:      path,
			SegmentBytes: 1 << 20,
			ExplogFault:  &DiskFault{ENOSPCAtByte: 8 << 10, ENOSPCRelease: 40},
		}, func(c *core.Config) {
			c.Workers = workers
			c.RetrainEvery = 1 << 30 // no background training: the append stream must be worker-invariant
		})
		base := "http://" + s.Addr()

		sawDegraded := false
		var restored statusResponse
		for i := 0; i < 120; i++ {
			if code := postJSON(t, base+"/v1/query", selectRequest{SQL: testSQL}, nil); code != http.StatusOK {
				t.Fatalf("workers=%d query %d: status %d — a degraded log must not take serving down", workers, i, code)
			}
			var st statusResponse
			if code := getJSON(t, base+"/v1/status", &st); code != http.StatusOK {
				t.Fatalf("workers=%d status: %d", workers, code)
			}
			if st.Durability == "degraded" {
				sawDegraded = true
				if st.ExplogDropped == 0 {
					t.Fatalf("workers=%d degraded with no dropped records: %+v", workers, st)
				}
				// Degraded durability is reported by both probe flavors but
				// fails neither.
				var h healthResponse
				if code := getJSON(t, base+"/v1/health", &h); code != http.StatusOK || h.Durability != "degraded" {
					t.Fatalf("workers=%d readiness probe while degraded: code=%d resp=%+v", workers, code, h)
				}
				if code := getJSON(t, base+"/v1/health?probe=live", &h); code != http.StatusOK || !h.Live {
					t.Fatalf("workers=%d liveness probe while degraded: code=%d resp=%+v", workers, code, h)
				}
			}
			if sawDegraded && st.Durability == "ok" {
				restored = st
				break
			}
		}
		if !sawDegraded {
			t.Fatalf("workers=%d: ENOSPC script never degraded the log", workers)
		}
		if restored.Durability != "ok" {
			t.Fatalf("workers=%d: durability never restored after ENOSPC release", workers)
		}
		if restored.ExplogReopenProbes == 0 {
			t.Fatalf("workers=%d: restoration without reopen probes: %+v", workers, restored)
		}

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()

		// The surviving log must replay to the same retrained model at
		// every worker count: training is bit-identical for any worker
		// count, so a divergent model means the logs themselves diverged.
		l, err := OpenLog(path, LogOptions{SegmentBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		b := newTestBao(t, func(c *core.Config) { c.Workers = workers })
		l.Replay(b)
		if b.ExperienceSize() == 0 {
			t.Fatalf("workers=%d: nothing recovered from the degraded-then-restored log", workers)
		}
		b.Retrain()
		var mb bytes.Buffer
		if err := b.SaveModel(&mb); err != nil {
			t.Fatal(err)
		}
		models[workers] = mb.Bytes()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(models[1], models[4]) {
		t.Fatal("post-recovery models diverge between worker counts 1 and 4")
	}
}

// TestServerStatusSurfacesExplog checks /v1/status carries the segmented
// log's recovery and durability counters.
func TestServerStatusSurfacesExplog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bao.explog")
	appendN(t, path, 5)
	s := newTestServer(t, Config{LogPath: path, SegmentBytes: 1 << 20}, nil)
	var st statusResponse
	if code := getJSON(t, "http://"+s.Addr()+"/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if st.LogReplayed != 5 {
		t.Fatalf("log_replayed = %d, want 5", st.LogReplayed)
	}
	if st.ExplogTailFrames != 5 {
		t.Fatalf("explog_tail_frames = %d, want 5", st.ExplogTailFrames)
	}
	if st.Durability != "ok" {
		t.Fatalf("durability = %q, want ok", st.Durability)
	}
	if st.ExplogSnapshotSeq != 0 || st.ExplogDropped != 0 {
		t.Fatalf("unexpected explog status: %+v", st)
	}
}

// writeLegacyLog writes a log file the way the pre-segment server did:
// one file, the same length + CRC-32 framing, JSON payloads that carry no
// sequence number. It returns the experiences and the critical set
// written, in file order.
func writeLegacyLog(t *testing.T, path string, n int) (exps []core.Experience, crit []core.Experience) {
	t.Helper()
	var file bytes.Buffer
	frame := func(rec logRecord) {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(payload, []byte(`"seq"`)) {
			t.Fatalf("legacy payload carries a sequence number: %s", payload)
		}
		var hdr [frameHeaderLen]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
		file.Write(hdr[:])
		file.Write(payload)
	}
	for i := 0; i < n; i++ {
		e := core.Experience{Tree: logTree(float64(i)), Secs: 0.01 * float64(i+1), ArmID: i % 3, Key: "q"}
		exps = append(exps, e)
		frame(logRecord{Kind: recExperience, Exp: &e})
		if i == n/2 {
			crit = []core.Experience{{Tree: logTree(100), Secs: 0.5, ArmID: 1, Key: "crit"}}
			frame(logRecord{Kind: recCritical, Key: "crit", Exps: crit})
		}
	}
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return exps, crit
}

// TestLegacyLogOpensAsTail pins the compatibility claim the segmented
// layout rests on (and that let the separate monolithic mode go): a
// single-file log whose frames carry no sequence numbers opens as a
// never-rotated tail, every record replays in scan order, and from there
// it behaves like any tail — it seals at the byte bound, compacts into a
// snapshot, and reopens to the same window and critical registry at
// every step.
func TestLegacyLogOpensAsTail(t *testing.T) {
	const n = 30
	path := filepath.Join(t.TempDir(), "bao.explog")
	exps, crit := writeLegacyLog(t, path, n)

	l, err := OpenLog(path, LogOptions{WindowCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	if replayed, skipped := l.Replayed(); replayed != n+1 || skipped != 0 {
		t.Fatalf("legacy open: replayed=%d skipped=%d, want %d/0", replayed, skipped, n+1)
	}
	if st := l.Stats(); st.Segments != 0 || st.SnapshotSeq != 0 || st.TailFrames != n+1 {
		t.Fatalf("legacy open: %+v, want an unsealed, unsnapshotted tail of %d frames", st, n+1)
	}
	if !reflect.DeepEqual(l.shadow, exps) {
		t.Fatal("legacy open: window is not the file's experiences in scan order")
	}
	wantCrit := map[string][]core.Experience{"crit": crit}
	if !reflect.DeepEqual(l.shadowCrit, wantCrit) {
		t.Fatalf("legacy open: critical registry = %v", l.shadowCrit)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen under a bound the legacy file already exceeds: the next
	// append seals the whole legacy file as segment 0.
	opts := LogOptions{SegmentBytes: 1 << 10, WindowCap: 64, ManualCompact: true}
	if l, err = OpenLog(path, opts); err != nil {
		t.Fatal(err)
	}
	appendSeg(t, l, n, 1)
	if st := l.Stats(); st.Segments != 1 {
		t.Fatalf("append past the bound: %d segments, want the legacy file sealed as 1", st.Segments)
	}
	appendSeg(t, l, n+1, 2)
	want := append([]core.Experience(nil), l.shadow...)
	if len(want) != n+3 {
		t.Fatalf("window = %d experiences, want %d", len(want), n+3)
	}
	reopen := func(stage string, wantReplayed int) {
		t.Helper()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if l, err = OpenLog(path, opts); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if replayed, skipped := l.Replayed(); replayed != wantReplayed || skipped != 0 {
			t.Fatalf("%s: replayed=%d skipped=%d, want %d/0", stage, replayed, skipped, wantReplayed)
		}
		if !reflect.DeepEqual(l.shadow, want) || !reflect.DeepEqual(l.shadowCrit, wantCrit) {
			t.Fatalf("%s: recovered window or critical registry differs", stage)
		}
	}
	// Sealed but not compacted: the legacy segment's unnumbered frames
	// and the numbered tail frames replay as one sequence.
	reopen("sealed legacy segment", n+1+3)

	forceSeal(t, l)
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.SnapshotSeq != n+1+3 || st.Segments != 0 {
		t.Fatalf("compaction: %+v, want a snapshot at seq %d covering (and deleting) every segment", st, n+1+3)
	}
	if segs := segFiles(t, path, segInfix); len(segs) != 0 {
		t.Fatalf("compaction left segments behind: %v", segs)
	}
	reopen("compacted", 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenLogRejectsNegativeSegmentBytes: the bound arrives from a flag,
// and a negative one used to select a second on-disk layout. It is now an
// error, and it must not touch the path.
func TestOpenLogRejectsNegativeSegmentBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bao.explog")
	l, err := OpenLog(path, LogOptions{SegmentBytes: -1})
	if err == nil {
		l.Close() //nolint:errcheck // failing anyway
		t.Fatal("OpenLog accepted a negative segment bound")
	}
	if !strings.Contains(err.Error(), "segment bound") {
		t.Fatalf("error %q does not name the segment bound", err)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("rejected open created the log file (stat: %v)", serr)
	}
	if _, err := New(newTestBao(t, nil), Config{LogPath: path, SegmentBytes: -1}); err == nil {
		t.Fatal("server.New accepted a negative segment bound")
	}
}
