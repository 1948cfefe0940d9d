// Package baoserver is the concurrent serving layer over a core.Bao
// optimizer: an HTTP/JSON front end whose read-mostly fast path runs any
// number of selections concurrently against the current value model, a
// single background trainer that retrains on a detached model and
// hot-swaps it in, and a durable segmented experience log replayed on
// startup so a restarted server resumes with its window, critical-query
// registry, and (optionally) model intact. This is the paper's Bao-server
// deployment shape (§2, Figure 2): the advisor stays on the query path
// while learning and durability stay off it.
package baoserver

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"bao/internal/core"
	"bao/internal/guard"
	"bao/internal/obs"
)

// Experience-log record kinds.
const (
	recExperience = "exp"  // one windowed experience
	recCritical   = "crit" // one critical query's exploration set
)

// logRecord is the JSON payload of one experience-log frame. Seq is the
// record's position in the log's total order, monotone across segment
// rotations; recovery uses it to skip frames already folded into a
// snapshot, so a frame is never applied twice. Legacy frames without a
// sequence are assigned one in scan order.
type logRecord struct {
	Kind string            `json:"kind"`
	Seq  uint64            `json:"seq,omitempty"`
	Exp  *core.Experience  `json:"exp,omitempty"`
	Key  string            `json:"key,omitempty"`
	Exps []core.Experience `json:"exps,omitempty"`
}

// frameHeaderLen is the fixed prefix of every log frame: a uint32 LE
// payload length followed by a uint32 LE CRC-32 (IEEE) of the payload.
const frameHeaderLen = 8

// maxFrameLen bounds a single record; a length above it means the header
// itself is garbage (torn write), not a huge record.
const maxFrameLen = 64 << 20

// On-disk layout for a log configured at path P:
//
//	P                 the active tail (append-only frames)
//	P.seg-<ordinal>   sealed segments, rotated out of the tail at the
//	                  byte bound; zero-padded so lexical order is seal
//	                  order
//	P.snap-<seq>      snapshot frames, named by the highest record
//	                  sequence they cover; a guard.CheckpointStore
//	                  (OpenFrameStore) owns them
//
// Recovery = newest valid snapshot + every frame with a higher sequence
// (remaining segments plus the tail), so replay work is bounded by what
// accumulated since the last compaction, not by total history. A file
// written before segments existed is simply a tail that never rotated:
// it opens as one and seals like any other tail once the byte bound is
// crossed.
const (
	segInfix  = ".seg-"
	snapInfix = ".snap-"
	snapMagic = "BAOSNP1\n"
)

// DefaultSegmentBytes is the tail rotation bound when Config.SegmentBytes
// is zero.
const DefaultSegmentBytes int64 = 4 << 20

// snapshotKeep retains this many snapshot generations so recovery
// can fall back past a corrupt newest snapshot (the store never prunes
// the newest one that loads).
const snapshotKeep = 2

// defaultShadowWindow caps the log's shadow experience window when the
// caller does not supply the optimizer's window size.
const defaultShadowWindow = 2048

// ErrLogDegraded reports an append dropped because the log is in
// read-only durability degradation: serving continues on the live model,
// but experiences are not being persisted until a reopen probe succeeds.
var ErrLogDegraded = errors.New("baoserver: experience log degraded; record dropped")

// LogOptions configures OpenLog beyond the path.
type LogOptions struct {
	// Observer receives the log's metrics and events; nil drops them.
	Observer *obs.Observer
	// SegmentBytes rotates the active tail into a sealed segment once it
	// reaches this size. Zero means DefaultSegmentBytes; OpenLog rejects
	// a negative bound.
	SegmentBytes int64
	// WindowCap is how many recent experiences the shadow window (and so
	// each snapshot) retains; it must be at least the optimizer's
	// configured window size or recovery would under-fill the window.
	// Zero means defaultShadowWindow.
	WindowCap int
	// Fault is the deterministic disk-fault script (tests and chaos
	// drills); nil injects nothing.
	Fault *DiskFault
	// ManualCompact disables seal-triggered background compaction;
	// snapshots are then cut only by explicit Compact calls. Scripted
	// tests use it to pin snapshot ordinals deterministically; it also
	// suits operators compacting on their own schedule.
	ManualCompact bool
}

// segmentInfo tracks one sealed segment on disk.
type segmentInfo struct {
	name   string
	ord    uint64
	maxSeq uint64 // highest record sequence inside (0 = none readable)
}

// snapshotPayload is the JSON body of a snapshot frame: everything
// recovery needs to reconstruct the optimizer's durable learning state
// as of the covered sequence. Snapshots written before the model
// generation was dropped also carry "model_gen", which decoding ignores.
type snapshotPayload struct {
	Window   []core.Experience            `json:"window"`
	Critical map[string][]core.Experience `json:"critical,omitempty"`
}

// LogStats is a point-in-time summary of the segmented log's durability
// state, surfaced per-tenant via /v1/status.
type LogStats struct {
	SnapshotSeq    uint64 // newest durable snapshot's covered sequence (0 = none)
	TailFrames     uint64 // frames a crash right now would replay (appended since the newest snapshot)
	Segments       int    // sealed segments on disk awaiting compaction
	Snapshots      uint64 // snapshots written by this process
	SnapshotErrors uint64 // snapshot write/verify failures (covered segments kept) plus snapshots recovery fell back past
	Dropped        uint64 // records dropped while degraded
	Degraded       bool   // read-only durability degradation active
	ReopenProbes   uint64 // reopen attempts made while degraded
}

// ExperienceLog is Bao's durable memory: an append-only tail of
// length-prefixed, checksummed JSON records that rotates into sealed
// segments at a byte bound, with a background compactor folding sealed
// segments into snapshot frames so recovery replays a bounded tail
// instead of all history. Appends happen on the observe path (outside
// Bao's lock, serialized by the log's own mutex). An unrecoverable
// append or fsync failure degrades the log to read-only — records are
// counted and dropped, never blocking serving — with exponential-backoff
// reopen probes clocked by append attempts, not wall time.
type ExperienceLog struct {
	mu        sync.Mutex
	f         *os.File
	path      string
	o         *obs.Observer
	opt       LogOptions
	snapStore *guard.CheckpointStore // the snapshot generations beside the log

	// Recovery output of open: replay/skip counters and the snapshot
	// anchor.
	replayed      int
	skipped       int
	snapSeq       uint64 // sequence covered by the snapshot recovery loaded (0 = none)
	snapFallbacks uint64 // corrupt snapshots skipped past at open

	// Append state.
	nextSeq    uint64 // sequence the next appended record gets
	sealOrd    uint64 // ordinal the next sealed segment gets
	tailBytes  int64  // bytes of intact frames in the active tail
	tailFrames int    // frames in the active tail
	goodOff    int64  // tail offset after the last fully-written frame

	// Shadow learning state: the window and critical registry a replay
	// of everything appended so far would produce, maintained on every
	// successful append. Snapshots serialize the shadow, so snapshot
	// content is consistent with its covered sequence by construction —
	// no coordination with the optimizer's own lock is ever needed.
	shadow     []core.Experience
	shadowCrit map[string][]core.Experience

	sealed      []segmentInfo
	lastSnapSeq uint64 // newest durable snapshot's covered sequence
	snaps       uint64
	snapErrs    uint64

	// Deterministic fault-injection ordinals, advanced under mu.
	appendN      int
	fsyncN       int
	snapN        int
	bytesWritten int64

	// Read-only degradation state.
	degraded bool
	dropped  uint64
	attempts uint64 // append attempts since entering degradation
	probeAt  uint64 // attempt ordinal of the next reopen probe
	probes   uint64

	closed      bool
	compactCh   chan struct{}
	compactDone chan struct{}
	compactMu   sync.Mutex // serializes snapshot writes (background + explicit)
}

// OpenExperienceLog opens the log at path with default options —
// rotation at DefaultSegmentBytes and the default shadow window. o may
// be nil (metrics are then dropped). Kept as the compatibility opener;
// the server passes richer LogOptions through OpenLog.
func OpenExperienceLog(path string, o *obs.Observer) (*ExperienceLog, error) {
	return OpenLog(path, LogOptions{Observer: o})
}

// OpenLog opens (creating if absent) the segmented log at path: its
// snapshot store sweeps the temp files of interrupted snapshot writes
// and restores the newest snapshot that loads (falling back past the
// rest, one explog-snapshot-error event each); the log then replays the
// sealed segments and tail for frames the snapshot does not cover,
// truncates any torn tail back to a frame boundary, deletes segments
// wholly covered by the snapshot, and starts the background compactor.
func OpenLog(path string, opt LogOptions) (*ExperienceLog, error) {
	if opt.SegmentBytes < 0 {
		return nil, fmt.Errorf("baoserver: experience log segment bound must be >= 0 (0 = %d bytes), got %d",
			DefaultSegmentBytes, opt.SegmentBytes)
	}
	if opt.SegmentBytes == 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if opt.WindowCap <= 0 {
		opt.WindowCap = defaultShadowWindow
	}
	l := &ExperienceLog{
		path:        path,
		o:           opt.Observer,
		opt:         opt,
		shadowCrit:  make(map[string][]core.Experience),
		compactCh:   make(chan struct{}, 1),
		compactDone: make(chan struct{}),
	}
	if err := l.open(); err != nil {
		return nil, err
	}
	go l.compactor()
	return l, nil
}

func segName(path string, ord uint64) string {
	return guard.GenName(path+segInfix, ord, "")
}

// listSegments scans the log's directory for its sealed segments,
// sorted ascending by ordinal.
func listSegments(path string) ([]segmentInfo, error) {
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		return nil, fmt.Errorf("baoserver: list experience log dir: %w", err)
	}
	var segs []segmentInfo
	for _, e := range entries {
		if n, ok := guard.ParseGenName(e.Name(), filepath.Base(path)+segInfix, ""); ok {
			segs = append(segs, segmentInfo{name: filepath.Join(filepath.Dir(path), e.Name()), ord: n})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].ord < segs[j].ord })
	return segs, nil
}

// open performs the recovery scan described on OpenLog.
func (l *ExperienceLog) open() error {
	var err error
	l.snapStore, err = guard.OpenFrameStore(filepath.Dir(l.path), filepath.Base(l.path)+snapInfix, snapMagic, snapshotKeep)
	if err != nil {
		return fmt.Errorf("baoserver: experience log snapshots: %w", err)
	}
	// Anchor on the newest snapshot that loads. Each fallback lengthens
	// the replayed tail but never loses state: compaction deletes a
	// segment only after its covering snapshot verified, so frames a bad
	// snapshot covered are still on disk.
	seq, skipped, err := l.snapStore.Recover(func(payload []byte) error {
		var p snapshotPayload
		if err := json.Unmarshal(payload, &p); err != nil {
			return err
		}
		l.shadow = p.Window
		if over := len(l.shadow) - l.opt.WindowCap; over > 0 {
			l.shadow = l.shadow[over:]
		}
		if p.Critical != nil {
			l.shadowCrit = p.Critical
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("baoserver: experience log snapshots: %w", err)
	}
	for _, sk := range skipped {
		l.snapFallbacks++
		if l.o != nil {
			l.o.LogSnapshotErrs.Inc()
			l.o.Emit(obs.Event{Kind: obs.EventExplogSnapshotError, Detail: "recovery fell back past " + sk.Error()})
		}
	}
	l.snapSeq = seq
	l.lastSnapSeq = seq
	segs, err := listSegments(l.path)
	if err != nil {
		return err
	}
	maxSeq := l.snapSeq

	admit := func(rec logRecord, tail bool) {
		if rec.Seq == 0 {
			rec.Seq = maxSeq + 1 // legacy frame: assign in scan order
		}
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
		if tail {
			l.tailFrames++
		}
		if rec.Seq <= l.snapSeq {
			return // already folded into the snapshot
		}
		l.replayed++
		l.applyShadowLocked(rec)
	}

	for i := range segs {
		data, rerr := os.ReadFile(segs[i].name)
		if rerr != nil {
			return fmt.Errorf("baoserver: read log segment: %w", rerr)
		}
		_, sk := scanFrames(data, func(rec logRecord) { admit(rec, false) })
		l.skipped += sk
		segs[i].maxSeq = maxSeq
		l.sealed = append(l.sealed, segs[i])
		l.sealOrd = segs[i].ord
	}
	l.sealOrd++

	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("baoserver: open experience log: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return fmt.Errorf("baoserver: scan experience log: %w", err)
	}
	goodEnd, sk := scanFrames(data, func(rec logRecord) { admit(rec, true) })
	l.skipped += sk
	if goodEnd < len(data) {
		if err := f.Truncate(int64(goodEnd)); err != nil {
			f.Close()
			return fmt.Errorf("baoserver: truncate torn log tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(goodEnd), io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("baoserver: seek experience log: %w", err)
	}
	l.f = f
	l.goodOff = int64(goodEnd)
	l.tailBytes = int64(goodEnd)
	l.nextSeq = maxSeq + 1

	// Housekeeping: segments wholly covered by the anchor snapshot are
	// redundant (a crashed compactor may have written the snapshot but
	// died before deleting). The store already pruned the snapshots.
	var keep []segmentInfo
	for _, sg := range l.sealed {
		if sg.maxSeq > 0 && sg.maxSeq <= l.snapSeq {
			os.Remove(sg.name) //nolint:errcheck // best effort; re-candidates next open
			continue
		}
		keep = append(keep, sg)
	}
	l.sealed = keep

	if l.o != nil {
		l.o.LogReplayed.Add(float64(l.replayed))
		l.o.LogSkipped.Add(float64(l.skipped))
		l.o.LogSegments.Set(float64(len(l.sealed)))
		if l.snapSeq > 0 {
			l.o.LogSnapshotSeq.Set(float64(l.snapSeq))
		}
	}
	return nil
}

// scanFrames walks the frames in data, calling fn for each intact
// record. A CRC or JSON failure skips that record and keeps scanning (a
// flipped bit should not orphan everything after it); a torn or insane
// header stops the walk (nothing beyond a torn write is framed).
// Returns the offset after the last structurally-sound frame and the
// skip count.
func scanFrames(data []byte, fn func(rec logRecord)) (goodEnd, skipped int) {
	off := 0
	for off < len(data) {
		if len(data)-off < frameHeaderLen {
			skipped++ // torn header
			break
		}
		length := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if length == 0 || length > maxFrameLen {
			skipped++ // garbage header; stop, nothing beyond is framed
			break
		}
		if len(data)-off-frameHeaderLen < int(length) {
			skipped++ // torn payload
			break
		}
		payload := data[off+frameHeaderLen : off+frameHeaderLen+int(length)]
		off += frameHeaderLen + int(length)
		if crc32.ChecksumIEEE(payload) != sum {
			skipped++ // corrupt record; later frames may still be intact
			goodEnd = off
			continue
		}
		var rec logRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			skipped++
			goodEnd = off
			continue
		}
		fn(rec)
		goodEnd = off
	}
	return goodEnd, skipped
}

// applyShadowLocked folds one record into the shadow window/registry —
// exactly the transformation Replay applies to the optimizer, so a
// snapshot of the shadow is equivalent to replaying every frame it
// covers. Callers hold l.mu (or are still inside single-threaded open).
func (l *ExperienceLog) applyShadowLocked(rec logRecord) {
	switch rec.Kind {
	case recExperience:
		if rec.Exp == nil {
			return
		}
		l.shadow = append(l.shadow, *rec.Exp)
		if over := len(l.shadow) - l.opt.WindowCap; over > 0 {
			l.shadow = l.shadow[over:]
		}
	case recCritical:
		if rec.Key != "" {
			l.shadowCrit[rec.Key] = rec.Exps
		}
	}
}

// Replay re-admits the recovered state into b: the snapshot window plus
// every post-snapshot experience frame enters the sliding window (oldest
// first, so the window slides exactly as it did live) and critical sets
// restore the triggered-exploration registry. No retrains are scheduled
// and no hooks fire during replay. The shadow already holds the merged
// result, so replay cost is O(window + tail), never O(history).
func (l *ExperienceLog) Replay(b *core.Bao) {
	keys := make([]string, 0, len(l.shadowCrit))
	for k := range l.shadowCrit {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.RestoreCritical(k, l.shadowCrit[k])
	}
	if len(l.shadow) > 0 {
		b.RestoreExperiences(l.shadow)
	}
}

// Attach makes the log b's durable record: it replays the recovered state
// into b (Replay), then registers the log as b's experience and critical
// hooks, so everything b admits from here on is appended. An append that
// fails degrades the log (counted and journaled inside), never b.
func (l *ExperienceLog) Attach(b *core.Bao) {
	l.Replay(b)
	b.SetExperienceHook(func(e core.Experience) {
		l.AppendExperience(e) //nolint:errcheck // degradation is counted and journaled inside
	})
	b.SetCriticalHook(func(key string, exps []core.Experience) {
		l.AppendCritical(key, exps) //nolint:errcheck // degradation is counted and journaled inside
	})
}

// Replayed returns how many intact post-snapshot records the opening
// scan found and how many corrupt or torn records it skipped.
func (l *ExperienceLog) Replayed() (replayed, skipped int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.replayed, l.skipped
}

// Stats reports the log's durability state.
func (l *ExperienceLog) Stats() LogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	var tail uint64
	if l.nextSeq > l.lastSnapSeq+1 {
		tail = l.nextSeq - 1 - l.lastSnapSeq
	}
	return LogStats{
		SnapshotSeq:    l.lastSnapSeq,
		TailFrames:     tail,
		Segments:       len(l.sealed),
		Snapshots:      l.snaps,
		SnapshotErrors: l.snapErrs + l.snapFallbacks,
		Dropped:        l.dropped,
		Degraded:       l.degraded,
		ReopenProbes:   l.probes,
	}
}

// Degraded reports whether the log is in read-only durability
// degradation.
func (l *ExperienceLog) Degraded() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.degraded
}

// AppendExperience durably appends one windowed experience.
func (l *ExperienceLog) AppendExperience(e core.Experience) error {
	return l.append(logRecord{Kind: recExperience, Exp: &e})
}

// AppendCritical durably appends one critical query's exploration set.
func (l *ExperienceLog) AppendCritical(key string, exps []core.Experience) error {
	return l.append(logRecord{Kind: recCritical, Key: key, Exps: exps})
}

// append frames and writes one record. The frame (header + payload) goes
// down in a single Write so a crash can tear at most the final record —
// exactly what the recovery scan tolerates. A write failure degrades the
// log instead of propagating havoc: the record is dropped and counted,
// serving continues, and reopen probes (exponential backoff on the
// append-attempt clock) try to restore durability.
func (l *ExperienceLog) append(rec logRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || (l.f == nil && !l.degraded) {
		return fmt.Errorf("baoserver: experience log is closed")
	}
	l.appendN++
	if l.degraded {
		l.attempts++
		if l.attempts < l.probeAt {
			l.dropLocked()
			return ErrLogDegraded
		}
		l.probes++
		if l.o != nil {
			l.o.LogReopenProbes.Inc()
		}
		if err := l.repairLocked(); err != nil {
			l.probeAt = l.attempts * 2
			l.dropLocked()
			return ErrLogDegraded
		}
		// Repaired: attempt this very append as the probe's proof — on
		// success the triggering record is saved, not dropped.
	}
	rec.Seq = l.nextSeq
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("baoserver: encode log record: %w", err)
	}
	frame := make([]byte, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeaderLen:], payload)
	if err := l.writeFrameLocked(frame); err != nil {
		wasDegraded := l.degraded
		l.enterDegradedLocked(err)
		if wasDegraded {
			l.probeAt = l.attempts * 2
		}
		l.dropLocked()
		return fmt.Errorf("baoserver: append log record: %w", err)
	}
	if l.degraded {
		l.exitDegradedLocked()
	}
	l.nextSeq++
	l.goodOff += int64(len(frame))
	l.tailBytes += int64(len(frame))
	l.tailFrames++
	l.applyShadowLocked(rec)
	if l.o != nil {
		l.o.LogRecords.Inc()
		l.o.LogBytes.Add(float64(len(frame)))
	}
	if l.tailBytes >= l.opt.SegmentBytes {
		l.sealLocked()
	}
	return nil
}

// writeFrameLocked writes one frame to the tail, applying the scripted
// disk faults. Callers hold l.mu.
func (l *ExperienceLog) writeFrameLocked(frame []byte) error {
	if ft := l.opt.Fault; ft != nil {
		if ft.TornAppendFrame > 0 && l.appendN == ft.TornAppendFrame {
			n := len(frame) / 2
			l.f.Write(frame[:n]) //nolint:errcheck // the tear itself is the fault
			l.bytesWritten += int64(n)
			return errors.New("injected torn append")
		}
		if ft.ENOSPCAtByte > 0 && (ft.ENOSPCRelease == 0 || l.appendN < ft.ENOSPCRelease) {
			if l.bytesWritten+int64(len(frame)) > ft.ENOSPCAtByte {
				if room := ft.ENOSPCAtByte - l.bytesWritten; room > 0 {
					l.f.Write(frame[:room]) //nolint:errcheck // partial write is the fault
					l.bytesWritten += room
				}
				return errors.New("injected write failure: no space left on device")
			}
		}
	}
	n, err := l.f.Write(frame)
	l.bytesWritten += int64(n)
	return err
}

// syncLocked fsyncs the tail, applying the scripted fsync fault. Callers
// hold l.mu.
func (l *ExperienceLog) syncLocked() error {
	l.fsyncN++
	if ft := l.opt.Fault; ft != nil && ft.FailFsync > 0 && l.fsyncN == ft.FailFsync {
		return errors.New("injected fsync failure")
	}
	return l.f.Sync()
}

// enterDegradedLocked flips the log read-only: the breaker and the
// serving path are untouched, in-memory learning continues, but nothing
// is persisted until a reopen probe succeeds. Callers hold l.mu.
func (l *ExperienceLog) enterDegradedLocked(cause error) {
	if !l.degraded {
		l.attempts = 0
		l.probeAt = 1
	}
	l.degraded = true
	if l.o != nil {
		l.o.LogDegradedG.Set(1)
		l.o.Emit(obs.Event{Kind: obs.EventExplogDegraded, Detail: cause.Error()})
	}
}

// exitDegradedLocked restores durable appends after a successful probe.
func (l *ExperienceLog) exitDegradedLocked() {
	l.degraded = false
	if l.o != nil {
		l.o.LogDegradedG.Set(0)
		l.o.Emit(obs.Event{Kind: obs.EventExplogRestored,
			Detail: fmt.Sprintf("durable appends restored after dropping %d record(s)", l.dropped)})
	}
}

func (l *ExperienceLog) dropLocked() {
	l.dropped++
	if l.o != nil {
		l.o.LogDropped.Inc()
	}
}

// repairLocked attempts to bring the tail back to its last good frame
// boundary: reopen the file if the handle was lost, truncate away any
// torn partial frame, and position for append. Callers hold l.mu.
func (l *ExperienceLog) repairLocked() error {
	if l.f == nil {
		f, err := os.OpenFile(l.path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return err
		}
		l.f = f
	}
	if err := l.f.Truncate(l.goodOff); err != nil {
		return err
	}
	_, err := l.f.Seek(l.goodOff, io.SeekStart)
	return err
}

// sealLocked rotates the tail into a sealed segment: flush, rename into
// the segment name, make the rename durable, and start a fresh tail. Any
// failure degrades the log (never panics, never loses acknowledged
// frames: the data is in whichever file survived). Callers hold l.mu.
func (l *ExperienceLog) sealLocked() {
	if l.tailFrames == 0 || l.degraded {
		return
	}
	if err := l.syncLocked(); err != nil {
		l.enterDegradedLocked(fmt.Errorf("pre-seal fsync: %w", err))
		return
	}
	if err := l.f.Close(); err != nil {
		l.f = nil
		l.enterDegradedLocked(fmt.Errorf("pre-seal close: %w", err))
		return
	}
	name := segName(l.path, l.sealOrd)
	if err := os.Rename(l.path, name); err != nil {
		l.f = nil // repair reopens the (unrenamed) tail
		l.enterDegradedLocked(fmt.Errorf("seal rename: %w", err))
		return
	}
	// The rename and the fresh tail's creation must be durably ordered:
	// if the rename were lost but later writes survived, recovery would
	// see a tail that silently replaced the sealed frames.
	if err := guard.SyncDir(filepath.Dir(l.path)); err != nil {
		// The segment exists under either name; recovery handles both.
		l.enterDegradedLocked(fmt.Errorf("seal dir fsync: %w", err))
	}
	l.sealed = append(l.sealed, segmentInfo{name: name, ord: l.sealOrd, maxSeq: l.nextSeq - 1})
	l.sealOrd++
	l.goodOff, l.tailBytes, l.tailFrames = 0, 0, 0
	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		l.f = nil
		l.enterDegradedLocked(fmt.Errorf("post-seal reopen: %w", err))
	} else {
		l.f = f
	}
	if l.o != nil {
		l.o.LogSeals.Inc()
		l.o.LogSegments.Set(float64(len(l.sealed)))
	}
	if !l.closed && !l.opt.ManualCompact {
		select {
		case l.compactCh <- struct{}{}:
		default:
		}
	}
}

// compactor is the background compaction goroutine: one pending signal
// coalesces any number of seals (like the trainer's retrain channel),
// and Close drains it before touching the file, preserving the fencing
// invariant that nothing writes to the namespace after Kill returns.
func (l *ExperienceLog) compactor() {
	defer close(l.compactDone)
	for range l.compactCh {
		l.Compact() //nolint:errcheck // counted and journaled inside
	}
}

// Compact writes a snapshot frame covering everything appended so far
// and deletes the sealed segments it covers. The snapshot store writes
// the frame atomically, reads it back and verifies it, and prunes old
// snapshots; segments are deleted only after the snapshot is durable AND
// valid, so a crash — or a corrupt snapshot landing on disk — at any
// point costs nothing: recovery falls back to the previous snapshot and
// replays the longer tail. Safe to call concurrently with appends; also
// invoked synchronously by tests for deterministic compaction points.
func (l *ExperienceLog) Compact() error {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()

	l.mu.Lock()
	if l.closed || len(l.sealed) == 0 || l.nextSeq-1 <= l.lastSnapSeq {
		l.mu.Unlock()
		return nil
	}
	lastSeq := l.nextSeq - 1
	window := append([]core.Experience(nil), l.shadow...)
	crit := make(map[string][]core.Experience, len(l.shadowCrit))
	for k, v := range l.shadowCrit {
		crit[k] = v
	}
	covered := append([]segmentInfo(nil), l.sealed...)
	l.snapN++
	snapOrd := l.snapN
	l.mu.Unlock()

	payload, err := json.Marshal(snapshotPayload{Window: window, Critical: crit})
	if err != nil {
		return l.snapshotFailed(fmt.Errorf("baoserver: encode snapshot: %w", err))
	}
	frame := guard.EncodeFrame(snapMagic, lastSeq, payload)
	ft := l.opt.Fault
	if ft != nil && ft.FailSnapshotWrite > 0 && snapOrd == ft.FailSnapshotWrite {
		return l.snapshotFailed(errors.New("baoserver: injected snapshot write failure"))
	}
	if ft != nil && ft.CorruptSnapshot > 0 && snapOrd == ft.CorruptSnapshot {
		frame = append([]byte(nil), frame...)
		frame[len(frame)-1] ^= 0xff
	}
	// A snapshot that cannot be read back must never orphan the
	// segments that still hold its content.
	if err := l.snapStore.WriteFrame(lastSeq, frame); err != nil {
		return l.snapshotFailed(fmt.Errorf("baoserver: write snapshot: %w", err))
	}

	l.mu.Lock()
	if lastSeq > l.lastSnapSeq {
		l.lastSnapSeq = lastSeq
	}
	l.snaps++
	inCovered := make(map[uint64]bool, len(covered))
	for _, sg := range covered {
		inCovered[sg.ord] = true
	}
	keep := l.sealed[:0]
	for _, sg := range l.sealed {
		if !inCovered[sg.ord] {
			keep = append(keep, sg)
		}
	}
	l.sealed = keep
	nsegs := len(l.sealed)
	l.mu.Unlock()

	for _, sg := range covered {
		os.Remove(sg.name) //nolint:errcheck // best effort; re-candidates next open
	}
	if l.o != nil {
		l.o.LogSnapshots.Inc()
		l.o.LogSnapshotSeq.Set(float64(lastSeq))
		l.o.LogSegments.Set(float64(nsegs))
		l.o.LogCompacted.Add(float64(len(covered)))
		l.o.Emit(obs.Event{Kind: obs.EventExplogSnapshot, Generation: lastSeq,
			Detail: fmt.Sprintf("snapshot seq=%d folded %d segment(s), window=%d", lastSeq, len(covered), len(window))})
	}
	return nil
}

func (l *ExperienceLog) snapshotFailed(err error) error {
	l.mu.Lock()
	l.snapErrs++
	l.mu.Unlock()
	if l.o != nil {
		l.o.LogSnapshotErrs.Inc()
		l.o.Emit(obs.Event{Kind: obs.EventExplogSnapshotError, Detail: err.Error()})
	}
	return err
}

// Sync flushes appended records to stable storage. While degraded it
// reports ErrLogDegraded (the drop counters already told the story); an
// fsync failure degrades the log exactly like an append failure.
func (l *ExperienceLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil || l.closed {
		return nil
	}
	if l.degraded {
		return ErrLogDegraded
	}
	if err := l.syncLocked(); err != nil {
		l.enterDegradedLocked(fmt.Errorf("sync: %w", err))
		return fmt.Errorf("baoserver: sync experience log: %w", err)
	}
	return nil
}

// Close drains the compactor, syncs, and closes the log. Further appends
// fail. A degraded log closes silently (its state was already surfaced);
// once Close returns nothing touches the log's files again — the fencing
// guarantee tenant failover relies on.
func (l *ExperienceLog) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.compactCh)
	<-l.compactDone

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var err error
	if !l.degraded {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil && !l.degraded {
		err = cerr
	}
	l.f = nil
	return err
}
