package guard

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

const testMagic = "TSTMAG1\n"

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte(`{"hello":"world"}`)
	frame := EncodeFrame(testMagic, 42, payload)
	gen, got, err := DecodeFrame(testMagic, frame)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 42 || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: gen=%d payload=%q", gen, got)
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	frame := EncodeFrame(testMagic, 7, []byte("payload-bytes"))
	cases := map[string][]byte{
		"flipped payload byte": append(append([]byte(nil), frame[:len(frame)-1]...), frame[len(frame)-1]^0xff),
		"truncated":            frame[:len(frame)-3],
		"short header":         frame[:FrameHeaderLen-1],
		"wrong magic":          append([]byte("WRONGMG\n"), frame[8:]...),
	}
	for name, data := range cases {
		if _, _, err := DecodeFrame(testMagic, data); err == nil {
			t.Errorf("%s: decode accepted corrupt frame", name)
		}
	}
}

func TestWriteFileAtomicPropagatesErrors(t *testing.T) {
	// A missing directory must fail loudly — the temp-file creation (and
	// the directory fsync behind it) is part of the durability contract,
	// not best effort.
	missing := filepath.Join(t.TempDir(), "no-such-dir")
	if err := WriteFileAtomic(missing, "f", []byte("x")); err == nil {
		t.Fatal("WriteFileAtomic into a missing directory reported no error")
	}
	if err := SyncDir(missing); err == nil {
		t.Fatal("SyncDir on a missing directory reported no error")
	}
}

func TestWriteFileAtomicDurableRename(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFileAtomic(dir, "out.bin", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "out.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "abc" {
		t.Fatalf("content = %q", data)
	}
	// Overwrite goes through the same temp+rename path.
	if err := WriteFileAtomic(dir, "out.bin", []byte("def")); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(filepath.Join(dir, "out.bin")); string(data) != "def" {
		t.Fatalf("after overwrite: %q", data)
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("leftover files: %v", entries)
	}
}

// FuzzDecodeFrame: DecodeFrame never panics on arbitrary bytes, and a
// frame it accepts re-encodes to exactly the bytes it was given.
func FuzzDecodeFrame(f *testing.F) {
	frame := EncodeFrame(testMagic, 7, []byte("payload-bytes"))
	f.Add(EncodeFrame(testMagic, 42, []byte(`{"hello":"world"}`)))
	f.Add(frame)
	f.Add(EncodeFrame(testMagic, 0, nil))
	f.Add(append(append([]byte(nil), frame[:len(frame)-1]...), frame[len(frame)-1]^0xff))
	f.Add(frame[:len(frame)-3])
	f.Add(frame[:FrameHeaderLen-1])
	f.Add(append([]byte("WRONGMG\n"), frame[8:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		gen, payload, err := DecodeFrame(testMagic, data)
		if err != nil {
			return
		}
		if re := EncodeFrame(testMagic, gen, payload); !bytes.Equal(re, data) {
			t.Fatalf("accepted frame re-encodes differently:\n got %x\nwant %x", re, data)
		}
	})
}
