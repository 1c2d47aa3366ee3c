package pager

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// writePages creates a checksummed file with n pages whose first byte is the
// page number, and returns its path.
func writePages(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ck.pg")
	f, err := Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	for i := 0; i < n; i++ {
		id, _ := f.Allocate()
		buf[0] = byte(i)
		buf[PayloadSize-1] = byte(i ^ 0x7F)
		if err := f.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestChecksumRoundTrip(t *testing.T) {
	path := writePages(t, 4)
	stats := &Stats{}
	f, err := Open(path, stats)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.Checksummed() {
		t.Fatal("created file not detected as checksummed")
	}
	if f.PayloadSize() != PayloadSize {
		t.Fatalf("PayloadSize = %d, want %d", f.PayloadSize(), PayloadSize)
	}
	buf := make([]byte, PageSize)
	for i := 0; i < 4; i++ {
		if err := f.ReadPage(PageID(i), buf); err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if buf[0] != byte(i) || buf[PayloadSize-1] != byte(i^0x7F) {
			t.Fatalf("page %d content mangled", i)
		}
	}
	if stats.ChecksumsVerified() != 4 || stats.ChecksumFailures() != 0 {
		t.Fatalf("checksum counters = %d ok / %d fail",
			stats.ChecksumsVerified(), stats.ChecksumFailures())
	}
}

func TestChecksumDetectsPayloadCorruption(t *testing.T) {
	path := writePages(t, 4)
	flipBit(t, path, 2*PageSize+4000) // the middle of page 2's payload

	stats := &Stats{}
	f, err := Open(path, stats)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, PageSize)
	if err := f.ReadPage(1, buf); err != nil {
		t.Fatalf("intact page rejected: %v", err)
	}
	if err := f.ReadPage(2, buf); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt page read error = %v, want ErrChecksum", err)
	}
	if stats.ChecksumFailures() != 1 {
		t.Fatalf("ChecksumFailures = %d, want 1", stats.ChecksumFailures())
	}
}

func TestChecksumDetectsTrailerCorruption(t *testing.T) {
	path := writePages(t, 2)
	fh, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Smash page 1's stored CRC.
	if _, err := fh.WriteAt([]byte{0xAA, 0xBB}, int64(1)*PageSize+PayloadSize); err != nil {
		t.Fatal(err)
	}
	fh.Close()
	f, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, PageSize)
	if err := f.ReadPage(1, buf); !errors.Is(err, ErrChecksum) {
		t.Fatalf("read error = %v, want ErrChecksum", err)
	}
}

// flipBit flips the lowest bit of the byte at off in the file at path.
func flipBit(t *testing.T, path string, off int64) {
	t.Helper()
	fh, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	var b [1]byte
	if _, err := fh.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := fh.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestDamagedPage0MagicKeepsVerification: one flipped bit in page 0's
// trailer magic must not reclassify the file as legacy and so switch off
// every other page's checksum. The last page still carries the magic, so
// the file opens as checksummed and both damaged pages fail typed.
func TestDamagedPage0MagicKeepsVerification(t *testing.T) {
	path := writePages(t, 3)
	flipBit(t, path, PayloadSize+4)   // page 0: trailer magic
	flipBit(t, path, 1*PageSize+4000) // page 1: payload
	f, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.Checksummed() || f.PayloadSize() != PayloadSize {
		t.Fatalf("Checksummed = %v, PayloadSize = %d: one damaged trailer turned verification off",
			f.Checksummed(), f.PayloadSize())
	}
	buf := make([]byte, PageSize)
	for _, id := range []PageID{0, 1} {
		if err := f.ReadPage(id, buf); !errors.Is(err, ErrChecksum) {
			t.Fatalf("damaged page %d read error = %v, want ErrChecksum", id, err)
		}
	}
	if err := f.ReadPage(2, buf); err != nil {
		t.Fatalf("intact page rejected: %v", err)
	}
}

func TestChecksumDetectsTornWrite(t *testing.T) {
	path := writePages(t, 3)
	// Simulate a torn write: page 1 gets a fresh 512-byte prefix while the
	// rest of the page (and its trailer) is stale.
	fh, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, 512)
	for i := range torn {
		torn[i] = 0xC3
	}
	if _, err := fh.WriteAt(torn, int64(1)*PageSize); err != nil {
		t.Fatal(err)
	}
	fh.Close()
	f, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, PageSize)
	if err := f.ReadPage(1, buf); !errors.Is(err, ErrChecksum) {
		t.Fatalf("torn page read error = %v, want ErrChecksum", err)
	}
}

func TestChecksumAcceptsNeverWrittenPage(t *testing.T) {
	f, err := Create(filepath.Join(t.TempDir(), "z.pg"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	id, _ := f.Allocate()
	buf := make([]byte, PageSize)
	for i := range buf {
		buf[i] = 0xFF
	}
	if err := f.ReadPage(id, buf); err != nil {
		t.Fatalf("never-written page rejected: %v", err)
	}
	if !allZero(buf) {
		t.Fatal("never-written page not zeroed")
	}
}

func TestLegacyFileReadsWithoutVerification(t *testing.T) {
	// A file written before the checksum trailer existed: arbitrary bytes,
	// no trailer magic. It must open as legacy, expose the full page as
	// payload, and read back verbatim.
	path := filepath.Join(t.TempDir(), "legacy.pg")
	raw := make([]byte, 2*PageSize)
	for i := range raw {
		raw[i] = byte(i * 31)
	}
	// Ensure the probe location cannot accidentally match the magic.
	raw[PayloadSize+4] = 0
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	stats := &Stats{}
	f, err := Open(path, stats)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Checksummed() {
		t.Fatal("legacy file detected as checksummed")
	}
	if f.PayloadSize() != PageSize {
		t.Fatalf("legacy PayloadSize = %d, want %d", f.PayloadSize(), PageSize)
	}
	buf := make([]byte, PageSize)
	if err := f.ReadPage(1, buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if buf[i] != raw[PageSize+i] {
			t.Fatalf("legacy byte %d = %d, want %d", i, buf[i], raw[PageSize+i])
		}
	}
	if stats.ChecksumsVerified() != 0 {
		t.Fatal("legacy reads must not verify checksums")
	}
	// Writes to a legacy file stay legacy: full page round-trips untouched.
	page := make([]byte, PageSize)
	for i := range page {
		page[i] = 0xEE
	}
	if err := f.WritePage(0, page); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[PageSize-1] != 0xEE {
		t.Fatal("legacy write mangled the trailer region")
	}
}
