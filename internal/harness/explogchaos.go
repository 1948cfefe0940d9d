package harness

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"

	"bao/internal/cloud"
	"bao/internal/core"
	"bao/internal/engine"
	baoserver "bao/internal/server"
)

// explogChaosQueries bounds the ingest stream per run: long enough that
// the tiny segment bound forces many seals (and so background snapshots),
// short enough that the full fault matrix at two worker counts stays a
// quick drill.
const explogChaosQueries = 256

// explogChaosSegBytes is the drill's tail rotation bound — deliberately
// tiny so rotation, compaction, and recovery fallback all happen within
// the bounded stream.
const explogChaosSegBytes = 16 << 10

// explogFaultScripts is the disk-fault matrix: every script is clocked on
// the log's own work counters (append attempts, cumulative bytes, fsync
// and snapshot ordinals — never wall time), so each scenario replays
// identically at any worker count.
var explogFaultScripts = []struct {
	name  string
	fault func() *baoserver.DiskFault
}{
	{"clean", func() *baoserver.DiskFault { return nil }},
	{"torn-append", func() *baoserver.DiskFault { return &baoserver.DiskFault{TornAppendFrame: 40} }},
	{"enospc-recover", func() *baoserver.DiskFault {
		return &baoserver.DiskFault{ENOSPCAtByte: 24 << 10, ENOSPCRelease: 60}
	}},
	{"fsync-fail", func() *baoserver.DiskFault { return &baoserver.DiskFault{FailFsync: 1} }},
	{"corrupt-snapshot", func() *baoserver.DiskFault { return &baoserver.DiskFault{CorruptSnapshot: 1} }},
	{"snapshot-write-fail", func() *baoserver.DiskFault { return &baoserver.DiskFault{FailSnapshotWrite: 1} }},
}

// explogOutcome is the deterministic signature of one fault-injected run:
// ingest-side durability counters plus the fully recovered learning state
// (window, critical registry, and the model retrained from the recovered
// window). Background compaction timing is free to vary run to run — it
// only moves frames between segments and snapshots — so everything here
// must be invariant to it, which is exactly the subsystem's contract: the
// recovered state depends on what was acknowledged, never on when the
// compactor ran.
type explogOutcome struct {
	Dropped      uint64
	ReopenProbes uint64
	SnapErrs     uint64
	DegradedEnd  bool
	Window       int
	CritKeys     []string
	ModelHash    string
}

// explogChaosRun drives one fault script at one worker count: a workload
// prefix streams experiences through a hook-wired segmented log (as a
// server would), the log is closed, reopened cleanly, replayed into a
// fresh optimizer, and the recovered state fingerprinted.
func (s *Session) explogChaosRun(workers int, ft *baoserver.DiskFault) (*explogOutcome, error) {
	inst, err := s.Instance("IMDb")
	if err != nil {
		return nil, err
	}
	n := explogChaosQueries
	if n > len(inst.Queries) {
		n = len(inst.Queries)
	}
	eng := engine.New(engine.GradePostgreSQL, cloud.PagesForVM(cloud.N1_4))
	if err := inst.Setup(eng); err != nil {
		return nil, err
	}
	cfg := s.chaosConfig(workers)
	cfg.Fault = nil // this drill scripts the disk, not the trainer
	b := core.New(eng, cfg)

	dir, err := os.MkdirTemp("", "bao-explog-chaos-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "bao.explog")
	lopt := baoserver.LogOptions{
		Observer:     cfg.Observer,
		SegmentBytes: explogChaosSegBytes,
		WindowCap:    b.WindowCap(),
	}
	ingest := lopt
	ingest.Fault = ft
	l, err := baoserver.OpenLog(path, ingest)
	if err != nil {
		return nil, err
	}
	l.Attach(b)
	for i := 0; i < n; i++ {
		sel, err := b.Select(inst.Queries[i].SQL)
		if err != nil {
			l.Close() //nolint:errcheck
			return nil, fmt.Errorf("harness: explog chaos query %d: %w", i, err)
		}
		out, err := eng.Execute(sel.Plans[sel.ArmID])
		if err != nil {
			l.Close() //nolint:errcheck
			return nil, err
		}
		b.Observe(sel, out.Counters)
	}
	st := l.Stats()
	if err := l.Close(); err != nil && !st.Degraded {
		return nil, fmt.Errorf("harness: explog chaos close: %w", err)
	}

	// Recovery: reopen with no fault script, replay into a fresh
	// optimizer, retrain once on the recovered window, and fingerprint the
	// model bytes — training is bit-identical for any worker count, so a
	// divergent hash means recovery itself diverged.
	l2, err := baoserver.OpenLog(path, lopt)
	if err != nil {
		return nil, fmt.Errorf("harness: explog chaos reopen: %w", err)
	}
	defer l2.Close() //nolint:errcheck
	b2 := core.New(eng, cfg)
	l2.Replay(b2)
	b2.Retrain()
	var mb bytes.Buffer
	if b2.Trained() {
		if err := b2.SaveModel(&mb); err != nil {
			return nil, err
		}
	}
	keys := b2.CriticalKeys()
	sort.Strings(keys)
	return &explogOutcome{
		Dropped:      st.Dropped,
		ReopenProbes: st.ReopenProbes,
		SnapErrs:     st.SnapshotErrors,
		DegradedEnd:  st.Degraded,
		Window:       b2.ExperienceSize(),
		CritKeys:     keys,
		ModelHash:    fmt.Sprintf("%x", sha256.Sum256(mb.Bytes()))[:16],
	}, nil
}

// ExplogChaos is the experience log's determinism drill: the disk-fault
// matrix (torn append, ENOSPC with later release, fsync failure, corrupt
// and failed snapshots) replays at two worker counts, and each scenario
// must recover byte-identical learning state — same window, same critical
// registry, same retrained model hash, same drop and probe counters —
// because every fault and every durability decision is clocked on the
// log's own counters, never on wall time or goroutine scheduling.
func (s *Session) ExplogChaos() error {
	out := s.Opts.Out
	header(out, "Explog chaos: deterministic disk-fault matrix across worker counts (IMDb)")

	workerCounts := []int{1, 4}
	var rows [][]string
	for _, sc := range explogFaultScripts {
		outcomes := make([]*explogOutcome, len(workerCounts))
		for i, w := range workerCounts {
			o, err := s.explogChaosRun(w, sc.fault())
			if err != nil {
				return fmt.Errorf("harness: explog chaos %s workers=%d: %w", sc.name, w, err)
			}
			outcomes[i] = o
		}
		for i, o := range outcomes[1:] {
			if !reflect.DeepEqual(outcomes[0], o) {
				return fmt.Errorf("harness: explog chaos %s: recovery diverges between workers=%d and workers=%d:\n%+v\nvs\n%+v",
					sc.name, workerCounts[0], workerCounts[i+1], outcomes[0], o)
			}
		}
		o := outcomes[0]
		rows = append(rows, []string{
			sc.name,
			fmt.Sprintf("%d", o.Dropped),
			fmt.Sprintf("%d", o.ReopenProbes),
			fmt.Sprintf("%d", o.SnapErrs),
			fmt.Sprintf("%v", o.DegradedEnd),
			fmt.Sprintf("%d", o.Window),
			fmt.Sprintf("%d", len(o.CritKeys)),
			o.ModelHash,
		})
	}
	table(out, []string{"Fault", "Dropped", "Probes", "SnapErrs", "DegradedEnd",
		"Window", "CritKeys", "ModelHash"}, rows)
	fmt.Fprintf(out, "recovered state identical across worker counts %v for all %d fault scripts\n",
		workerCounts, len(explogFaultScripts))
	return nil
}
