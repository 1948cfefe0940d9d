package baoserver

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"bao/internal/core"
)

// TestExplogSweepsSnapshotTempLeftovers: a process killed between a
// snapshot's temp-file create and its rename leaves a window-sized
// ".<log>.snap-<seq>-*.tmp" beside the log. Opening the log removes it,
// and nothing else: the directory is shared.
func TestExplogSweepsSnapshotTempLeftovers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bao.explog")
	leftover := filepath.Join(dir, ".bao.explog.snap-0000000000000021-2739810.tmp")
	foreign := []string{
		filepath.Join(dir, ".other.explog.snap-0000000000000021-1.tmp"),
		filepath.Join(dir, "scratch.tmp"),
		filepath.Join(dir, "notes.txt"),
	}
	for _, name := range append([]string{leftover}, foreign...) {
		if err := os.WriteFile(name, []byte("half a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := OpenLog(path, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatalf("snapshot temp leftover survived open (stat: %v)", err)
	}
	for _, name := range foreign {
		if _, err := os.Stat(name); err != nil {
			t.Fatalf("open removed a file that is not the log's: %v", err)
		}
	}
}

// handFrame frames a payload in the guard single-frame format, written
// out byte by byte: 8-byte magic, generation, payload length, CRC-32.
func handFrame(magic string, gen uint64, payload []byte) []byte {
	var hdr [28]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint64(hdr[8:], gen)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[24:], crc32.ChecksumIEEE(payload))
	return append(hdr[:], payload...)
}

// handLogFrames frames records the way the log appends them: uint32
// length, uint32 CRC-32, JSON payload.
func handLogFrames(t testing.TB, recs ...logRecord) []byte {
	t.Helper()
	var out []byte
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
		out = append(out, payload...)
	}
	return out
}

// TestDurableStateOpensFromEarlierLayout builds, by hand, a log
// directory and a checkpoint directory in the byte layout written before
// snapshots went through the checkpoint store — the same file names, the
// BAOSNP1 and BAOCKP1 frames, snapshots whose JSON carries "model_gen" —
// and checks a server recovers the same window, critical registry and
// model bytes from them, touching no file.
func TestDurableStateOpensFromEarlierLayout(t *testing.T) {
	// Real model bytes to checkpoint: a briefly trained optimizer's.
	trained := newTestBao(t, nil)
	for i := 0; i < 4; i++ {
		if _, _, err := trained.Run(testSQL); err != nil {
			t.Fatal(err)
		}
	}
	trained.Retrain()
	var model bytes.Buffer
	if err := trained.SaveModel(&model); err != nil {
		t.Fatal(err)
	}

	exp := func(i int) core.Experience {
		return core.Experience{Tree: logTree(float64(i)), Secs: 0.01 * float64(i+1), ArmID: i % 3, Key: "q"}
	}
	var exps []core.Experience
	for i := 0; i < 8; i++ {
		exps = append(exps, exp(i))
	}
	crit := []core.Experience{{Tree: logTree(99), Secs: 9.9, ArmID: 1, Key: "crit-q"}}
	type earlierSnapshot struct { // the earlier payload, model_gen included
		Window   []core.Experience            `json:"window"`
		Critical map[string][]core.Experience `json:"critical,omitempty"`
		ModelGen uint64                       `json:"model_gen,omitempty"`
	}
	snapshot := func(seq uint64, s earlierSnapshot) []byte {
		payload, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(payload, []byte(`"model_gen":`)) {
			t.Fatalf("hand-built snapshot lacks model_gen: %s", payload)
		}
		return handFrame("BAOSNP1\n", seq, payload)
	}

	dir := t.TempDir()
	logDir, ckDir := filepath.Join(dir, "log"), filepath.Join(dir, "ckpt")
	files := map[string][]byte{
		// Snapshot 2 (older) and 5: seq 5 covers exps 0..3 plus the
		// critical set at seq 3.
		"log/bao.explog.snap-0000000000000002": snapshot(2, earlierSnapshot{Window: exps[:2], ModelGen: 1}),
		"log/bao.explog.snap-0000000000000005": snapshot(5, earlierSnapshot{Window: exps[:4], Critical: map[string][]core.Experience{"crit-q": crit}, ModelGen: 2}),
		// One sealed segment past the snapshot, and the tail.
		"log/bao.explog.seg-0000000000000003": handLogFrames(t,
			logRecord{Kind: recExperience, Seq: 6, Exp: &exps[4]},
			logRecord{Kind: recExperience, Seq: 7, Exp: &exps[5]}),
		"log/bao.explog": handLogFrames(t,
			logRecord{Kind: recExperience, Seq: 8, Exp: &exps[6]},
			logRecord{Kind: recExperience, Seq: 9, Exp: &exps[7]}),
		"ckpt/model-0000000000000001.ckpt": handFrame("BAOCKP1\n", 1, []byte("an older generation")),
		"ckpt/model-0000000000000002.ckpt": handFrame("BAOCKP1\n", 2, model.Bytes()),
	}
	for name, data := range files {
		full := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	b := newTestBao(t, nil)
	s, err := New(b, Config{LogPath: filepath.Join(logDir, "bao.explog"), CheckpointDir: ckDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	if replayed, skipped := s.Log().Replayed(); replayed != 4 || skipped != 0 {
		t.Fatalf("replayed=%d skipped=%d, want the 4 frames past snapshot 5", replayed, skipped)
	}
	if st := s.Log().Stats(); st.SnapshotSeq != 5 || st.SnapshotErrors != 0 || st.Segments != 1 {
		t.Fatalf("log stats %+v, want snapshot 5, no errors, one segment", st)
	}
	if got := b.Experiences(); !reflect.DeepEqual(got, exps) {
		t.Fatalf("recovered window = %d experiences, want the 8 written", len(got))
	}
	if got := b.CriticalSets(); !reflect.DeepEqual(got, map[string][]core.Experience{"crit-q": crit}) {
		t.Fatalf("recovered critical registry = %v", got)
	}
	var restored bytes.Buffer
	if err := b.SaveModel(&restored); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored.Bytes(), model.Bytes()) || s.Generation() != 2 {
		t.Fatalf("restored generation %d, model bytes equal %v; want generation 2 and the checkpointed bytes",
			s.Generation(), bytes.Equal(restored.Bytes(), model.Bytes()))
	}
	for name, data := range files {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s changed by recovery (err %v)", name, err)
		}
	}
	var onDisk []string
	for _, d := range []string{logDir, ckDir} {
		entries, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			onDisk = append(onDisk, filepath.Base(d)+"/"+e.Name())
		}
	}
	var want []string
	for name := range files {
		want = append(want, name)
	}
	sort.Strings(onDisk)
	sort.Strings(want)
	if !reflect.DeepEqual(onDisk, want) {
		t.Fatalf("files after recovery = %v, want %v", onDisk, want)
	}
}

// FuzzScanFrames: the frame scan never panics on arbitrary bytes and
// never reports a good prefix longer than its input, and over a
// concatenation of valid frames it yields every record, in order, and
// accounts for every byte.
func FuzzScanFrames(f *testing.F) {
	e := core.Experience{Tree: logTree(1), Secs: 0.5, ArmID: 2, Key: "q"}
	valid := handLogFrames(f,
		logRecord{Kind: recExperience, Seq: 1, Exp: &e},
		logRecord{Kind: recCritical, Seq: 2, Key: "crit", Exps: []core.Experience{e}})
	f.Add(valid, "q\ncrit")
	f.Add(valid[:len(valid)-3], "")                 // torn payload
	f.Add(valid[:5], "one")                         // torn header
	f.Add(append([]byte{0, 0, 0, 0}, valid...), "") // zero length header
	flipped := append([]byte(nil), valid...)
	flipped[12] ^= 0xff // CRC mismatch in the first frame
	f.Add(flipped, "a\n\nb")
	f.Add([]byte{}, "")
	f.Fuzz(func(t *testing.T, data []byte, keys string) {
		if goodEnd, _ := scanFrames(data, func(logRecord) {}); goodEnd < 0 || goodEnd > len(data) {
			t.Fatalf("goodEnd %d outside [0, %d]", goodEnd, len(data))
		}
		var recs []logRecord
		for i, k := range strings.Split(keys, "\n") {
			recs = append(recs, logRecord{Kind: recCritical, Seq: uint64(i + 1), Key: k})
		}
		frames := handLogFrames(t, recs...)
		var got []logRecord
		goodEnd, skipped := scanFrames(frames, func(rec logRecord) { got = append(got, rec) })
		if goodEnd != len(frames) || skipped != 0 || len(got) != len(recs) {
			t.Fatalf("valid frames: goodEnd %d of %d, skipped %d, %d of %d records", goodEnd, len(frames), skipped, len(got), len(recs))
		}
		for i, rec := range got {
			if rec.Seq != uint64(i+1) || rec.Kind != recCritical {
				t.Fatalf("record %d came back as seq %d kind %q", i, rec.Seq, rec.Kind)
			}
		}
	})
}
