package guard

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Model checkpoints are generation files model-<gen>.ckpt, framed with
// the magic "BAOCKP1\n", in a directory of their own.
const (
	ckptMagic  = "BAOCKP1\n"
	ckptPrefix = "model-"
	ckptSuffix = ".ckpt"
)

// CheckpointStore is the one home of generation files: numbered guard
// frames (see frame.go) named <prefix><gen><suffix> in one directory,
// the generation zero-padded to 16 digits so lexical order is generation
// order. Model checkpoints and the experience log's snapshots
// (<log>.snap-<coveredSeq> beside the log) both live in one. It alone
// names, writes, reads back, lists, restores and prunes them:
//   - a write is frame → WriteFileAtomic → read back → DecodeFrame; a
//     frame that does not verify is a failed write, and nothing is
//     deleted because of it;
//   - a generation loads when its frame decodes, its header names the
//     generation its file name does, and the caller accepts its payload;
//     restore takes the newest that loads, rolling back past the rest;
//   - pruning keeps the newest K names and never the newest generation
//     known to load (written and verified, or restored);
//   - the counter resumes from the highest generation *named* in the
//     directory, not the highest that loads, so a number is never reused.
type CheckpointStore struct {
	dir, prefix, suffix, magic string
	// tmpPrefix scopes the temp-file sweep at open: "" sweeps every
	// ".tmp" file (the store owns dir), otherwise only names starting
	// with it (dir is shared).
	tmpPrefix string
	keep      int

	mu     sync.Mutex
	gen    uint64 // highest generation ever seen or written
	anchor uint64 // newest generation known to load; never pruned
}

// OpenCheckpointStore opens (creating if absent) a model checkpoint
// directory the store owns: temp-file leftovers of interrupted saves are
// removed and the generation counter resumes from the files present.
// keep < 1 keeps one.
func OpenCheckpointStore(dir string, keep int) (*CheckpointStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("guard: checkpoint dir: %w", err)
	}
	return openStore(&CheckpointStore{dir: dir, prefix: ckptPrefix, suffix: ckptSuffix, magic: ckptMagic, keep: keep})
}

// OpenFrameStore opens a store of generation files named <prefix><gen>
// in dir, which it shares with other files: only its own temp-file
// leftovers (".<prefix>…tmp", what an interrupted WriteFileAtomic
// leaves) are removed at open. keep < 1 keeps one.
func OpenFrameStore(dir, prefix, magic string, keep int) (*CheckpointStore, error) {
	return openStore(&CheckpointStore{dir: dir, prefix: prefix, magic: magic, tmpPrefix: "." + prefix, keep: keep})
}

func openStore(s *CheckpointStore) (*CheckpointStore, error) {
	s.keep = max(s.keep, 1)
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("guard: generation dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, s.tmpPrefix) && strings.HasSuffix(name, ".tmp") {
			// A crash between temp-file write and rename left this behind;
			// it was never a generation.
			os.Remove(filepath.Join(s.dir, name)) //nolint:errcheck // best effort
		} else if g, ok := ParseGenName(name, s.prefix, s.suffix); ok {
			s.gen = max(s.gen, g)
		}
	}
	return s, nil
}

// GenName renders a generation file name: prefix, the generation
// zero-padded to 16 digits, suffix.
func GenName(prefix string, gen uint64, suffix string) string {
	return fmt.Sprintf("%s%016d%s", prefix, gen, suffix)
}

// ParseGenName returns the generation a name denotes: only a name
// GenName renders is a generation file.
func ParseGenName(name, prefix, suffix string) (uint64, bool) {
	g, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
	return g, err == nil && GenName(prefix, g, suffix) == name
}

// Generation returns the highest generation seen or written so far.
func (s *CheckpointStore) Generation() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Generations lists the generations currently on disk, ascending.
func (s *CheckpointStore) Generations() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, e := range entries {
		if g, ok := ParseGenName(e.Name(), s.prefix, s.suffix); ok {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// Save writes one new generation: write serializes the payload, which
// is framed and written under the next generation number (WriteFrame).
// Returns the generation written. A failed write — including a directory
// fsync failure or a frame that does not read back — does not advance
// the generation counter, so a retry overwrites the same file rather
// than skipping a number.
func (s *CheckpointStore) Save(write func(w io.Writer) error) (uint64, error) {
	var payload bytes.Buffer
	if err := write(&payload); err != nil {
		return 0, fmt.Errorf("guard: checkpoint serialize: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	gen := s.gen + 1
	if err := s.writeLocked(gen, EncodeFrame(s.magic, gen, payload.Bytes())); err != nil {
		return 0, fmt.Errorf("guard: checkpoint save: %w", err)
	}
	return gen, nil
}

// WriteFrame lands an already-encoded frame as generation gen, reads it
// back and verifies it, then prunes; Save is WriteFrame over a frame it
// encodes itself. An error means the generation is not durable and
// valid; whatever landed stays on disk for a restore to roll back past.
func (s *CheckpointStore) WriteFrame(gen uint64, frame []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeLocked(gen, frame)
}

func (s *CheckpointStore) writeLocked(gen uint64, frame []byte) error {
	if err := WriteFileAtomic(s.dir, GenName(s.prefix, gen, s.suffix), frame); err != nil {
		return err
	}
	if _, err := s.readFrame(gen); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	s.gen = max(s.gen, gen)
	s.anchor = max(s.anchor, gen)
	s.pruneLocked()
	return nil
}

// Restore loads the newest generation that passes integrity checks AND
// that apply accepts, rolling back past corrupt, truncated, or rejected
// generations. Returns the generation restored (0 when none), how many
// newer generations were rolled back past, and an error only for
// directory-level failures — individual bad frames are rollback, not
// failure.
func (s *CheckpointStore) Restore(apply func(r io.Reader) error) (gen uint64, rolledBack int, err error) {
	gen, skipped, err := s.Recover(func(p []byte) error { return apply(bytes.NewReader(p)) })
	return gen, len(skipped), err
}

// Recover is Restore over the payload bytes, returning one error per
// generation rolled back past, newest first, each naming its file. It
// then prunes.
func (s *CheckpointStore) Recover(apply func(payload []byte) error) (gen uint64, skipped []error, err error) {
	gens, err := s.Generations()
	if err != nil {
		return 0, nil, fmt.Errorf("guard: restore: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(gens) - 1; i >= 0 && gen == 0; i-- {
		payload, ferr := s.readFrame(gens[i])
		if ferr == nil {
			ferr = apply(payload)
		}
		if ferr != nil {
			skipped = append(skipped, fmt.Errorf("%s: %w", GenName(s.prefix, gens[i], s.suffix), ferr))
		} else {
			gen = gens[i]
		}
	}
	s.anchor = max(s.anchor, gen)
	s.pruneLocked()
	return gen, skipped, nil
}

// readFrame reads and integrity-checks one generation's frame, returning
// its payload.
func (s *CheckpointStore) readFrame(gen uint64) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, GenName(s.prefix, gen, s.suffix)))
	if err != nil {
		return nil, err
	}
	g, payload, err := DecodeFrame(s.magic, data)
	if err == nil && g != gen {
		err = fmt.Errorf("guard: frame: header names generation %d", g)
	}
	return payload, err
}

// pruneLocked removes generations beyond the keep limit, oldest first,
// never the anchor. Best effort: a prune failure never fails the write
// or restore that triggered it. Callers hold s.mu.
func (s *CheckpointStore) pruneLocked() {
	gens, err := s.Generations()
	if err != nil || len(gens) <= s.keep {
		return
	}
	for _, g := range gens[:len(gens)-s.keep] {
		if g != s.anchor {
			os.Remove(filepath.Join(s.dir, GenName(s.prefix, g, s.suffix))) //nolint:errcheck // best effort
		}
	}
}
