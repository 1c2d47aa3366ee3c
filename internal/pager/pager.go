// Package pager provides fixed-size page storage on top of ordinary files,
// an LRU buffer pool, and I/O accounting that distinguishes sequential from
// random page transfers.
//
// Every on-disk structure in this repository (heap files, B+-trees, packed
// R-trees) is built on this package so that the conventional and the Cubetree
// storage organizations are compared on an identical substrate, as in the
// paper's Informix experiments. The accounting layer exists because the
// paper's 10-1 and 100-1 results are driven by the sequential/random I/O gap
// of 1998 disks; see CostModel.
//
// Durability: files created by this package reserve the last TrailerSize
// bytes of every page for a CRC32-C checksum stamped on write and verified
// on read, so a torn write or flipped bit surfaces as ErrChecksum instead of
// being served as wrong data. Files written before the trailer existed are
// detected on Open (neither their page 0 nor their last page carries the
// trailer magic) and are read without verification; see File.PayloadSize.
// Two probes, so that one damaged trailer does not switch verification off
// for the whole file: when they disagree the file opens as checksummed and
// the damaged page fails with ErrChecksum. Two damaged probes do switch it
// off: damage to both magics opens a checksummed file as legacy, and a
// flipped payload bit elsewhere in it then reads as a wrong value. ctcheck
// therefore fails any file that opens unverified. The other price is that a
// legacy file whose bytes at a probe offset happen to spell the magic
// (2⁻³² per probe) opens as checksummed and its reads fail with that typed
// error.
package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
)

// PageSize is the size in bytes of every page managed by this package.
const PageSize = 8192

// TrailerSize is the number of bytes reserved at the end of every page of a
// checksummed file: a CRC32-C over the payload followed by a format magic.
const TrailerSize = 8

// PayloadSize is the number of page bytes usable by callers on checksummed
// files. Callers must size their page layouts with File.PayloadSize, which
// returns the full PageSize for legacy (pre-checksum) files.
const PayloadSize = PageSize - TrailerSize

// trailerMagic marks a page trailer written by the checksumming pager
// ("CKS1" little-endian). It doubles as the format version: a future layout
// change bumps the final byte.
const trailerMagic = 0x31534B43

// ErrChecksum is returned when a page's stored CRC32-C does not match its
// contents, indicating a torn write or on-disk corruption.
var ErrChecksum = errors.New("pager: page checksum mismatch")

// crcTable is the Castagnoli polynomial table (hardware-accelerated on
// amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// PageID identifies a page within a File. Pages are numbered from zero in
// file order, so consecutively numbered pages are physically adjacent.
type PageID uint32

// InvalidPage is a sentinel PageID that never refers to a real page.
const InvalidPage PageID = 0xFFFFFFFF

// ErrPageOutOfRange is returned when a read refers to a page that has not
// been allocated.
var ErrPageOutOfRange = errors.New("pager: page out of range")

// File is a page-addressed file. All methods are safe for concurrent use.
//
// Sequential access detection: a read (write) of page n immediately after a
// read (write) of page n-1 on the same File is counted as sequential;
// everything else is counted as random. This mirrors the behaviour of a
// single disk arm.
type File struct {
	mu        sync.Mutex
	f         *os.File
	path      string
	numPages  uint32
	stats     *Stats
	lastRead  PageID
	lastWrite PageID

	// checksummed is fixed at Create/Open: new files carry a CRC32-C
	// trailer on every page; legacy files are read and written verbatim.
	checksummed bool
}

// Create creates (or truncates) a page file at path. I/O performed on the
// returned File is recorded in stats; a nil stats is replaced with a private
// Stats so callers may always ignore accounting. Files are always created in
// the checksummed format.
func Create(path string, stats *Stats) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: create %s: %w", path, err)
	}
	return newFile(f, path, 0, stats, true), nil
}

// Open opens an existing page file at path. The file size must be a multiple
// of PageSize. The format is detected from the trailers of page 0 and of the
// last page: files written by a pre-checksum version of this package carry
// the trailer magic on neither and are served without verification (and with
// the full PageSize as payload).
func Open(path string, stats *Stats) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: open %s: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pager: stat %s: %w", path, err)
	}
	if info.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("pager: %s size %d is not a multiple of page size", path, info.Size())
	}
	pages := info.Size() / PageSize
	checksummed := true
	if pages > 0 {
		checksummed, err = hasTrailerMagic(f, 0)
		if err == nil && !checksummed && pages > 1 {
			checksummed, err = hasTrailerMagic(f, pages-1)
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("pager: probe %s: %w", path, err)
		}
	}
	return newFile(f, path, uint32(pages), stats, checksummed), nil
}

// hasTrailerMagic reports whether the given page of f ends in the trailer magic.
func hasTrailerMagic(f *os.File, page int64) (bool, error) {
	var magic [4]byte
	if _, err := f.ReadAt(magic[:], page*PageSize+PayloadSize+4); err != nil {
		return false, err
	}
	return binary.LittleEndian.Uint32(magic[:]) == trailerMagic, nil
}

func newFile(f *os.File, path string, pages uint32, stats *Stats, checksummed bool) *File {
	if stats == nil {
		stats = &Stats{}
	}
	return &File{
		f:           f,
		path:        path,
		numPages:    pages,
		stats:       stats,
		lastRead:    InvalidPage,
		lastWrite:   InvalidPage,
		checksummed: checksummed,
	}
}

// Checksummed reports whether the file carries per-page CRC32-C trailers.
func (f *File) Checksummed() bool { return f.checksummed }

// PayloadSize returns the number of bytes of each page available to callers:
// PayloadSize for checksummed files, the full PageSize for legacy files.
// Page layouts (node capacities, tuples per page) must be computed from this
// so the two formats stay mutually readable.
func (f *File) PayloadSize() int {
	if f.checksummed {
		return PayloadSize
	}
	return PageSize
}

// Path returns the file system path of the page file.
func (f *File) Path() string { return f.path }

// Stats returns the accounting sink attached to the file.
func (f *File) Stats() *Stats { return f.stats }

// NumPages returns the number of allocated pages.
func (f *File) NumPages() uint32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.numPages
}

// Size returns the file size in bytes.
func (f *File) Size() int64 { return int64(f.NumPages()) * PageSize }

// Allocate appends a fresh zeroed page and returns its id. The page contents
// on disk are undefined until the first WritePage; callers always write a
// full page before reading it back.
func (f *File) Allocate() (PageID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	id := PageID(f.numPages)
	f.numPages++
	return id, nil
}

// ReadPage reads page id into buf, which must be at least PageSize bytes.
// On checksummed files the page's CRC32-C trailer is verified and a mismatch
// is returned as an error wrapping ErrChecksum.
func (f *File) ReadPage(id PageID, buf []byte) error {
	if len(buf) < PageSize {
		return fmt.Errorf("pager: read buffer too small (%d bytes)", len(buf))
	}
	if err := faultRead(); err != nil {
		return err
	}
	f.mu.Lock()
	if uint32(id) >= f.numPages {
		f.mu.Unlock()
		return fmt.Errorf("%w: page %d of %d", ErrPageOutOfRange, id, f.numPages)
	}
	seq := f.lastRead != InvalidPage && id == f.lastRead+1
	f.lastRead = id
	f.mu.Unlock()

	n, err := f.f.ReadAt(buf[:PageSize], int64(id)*PageSize)
	if err != nil && n != PageSize {
		// A short read at the tail is possible when the page was allocated
		// but never written; treat it as a zero page.
		for i := n; i < PageSize; i++ {
			buf[i] = 0
		}
	}
	f.stats.recordRead(seq)
	if f.checksummed {
		if err := verifyPage(buf); err != nil {
			f.stats.recordChecksum(false)
			return fmt.Errorf("pager: %s page %d: %w", f.path, id, err)
		}
		f.stats.recordChecksum(true)
	}
	return nil
}

// verifyPage checks a checksummed page's trailer. An all-zero page (trailer
// included) is accepted: it is a page that was allocated but never written.
func verifyPage(buf []byte) error {
	stored := binary.LittleEndian.Uint32(buf[PayloadSize:])
	magic := binary.LittleEndian.Uint32(buf[PayloadSize+4:])
	if magic != trailerMagic {
		if magic == 0 && stored == 0 && allZero(buf[:PayloadSize]) {
			return nil
		}
		return fmt.Errorf("%w (missing trailer)", ErrChecksum)
	}
	if crc32.Checksum(buf[:PayloadSize], crcTable) != stored {
		return ErrChecksum
	}
	return nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// WritePage writes buf (at least PageSize bytes) to page id. The page must
// have been allocated. On checksummed files the trailer bytes
// buf[PayloadSize:PageSize] are overwritten in place with the payload's
// CRC32-C, so the in-memory copy always matches what reached disk.
func (f *File) WritePage(id PageID, buf []byte) error {
	if len(buf) < PageSize {
		return fmt.Errorf("pager: write buffer too small (%d bytes)", len(buf))
	}
	f.mu.Lock()
	if uint32(id) >= f.numPages {
		f.mu.Unlock()
		return fmt.Errorf("%w: page %d of %d", ErrPageOutOfRange, id, f.numPages)
	}
	seq := f.lastWrite != InvalidPage && id == f.lastWrite+1
	f.lastWrite = id
	f.mu.Unlock()

	if f.checksummed {
		binary.LittleEndian.PutUint32(buf[PayloadSize:], crc32.Checksum(buf[:PayloadSize], crcTable))
		binary.LittleEndian.PutUint32(buf[PayloadSize+4:], trailerMagic)
	}
	if err := faultPageWrite(f.f, int64(id)*PageSize, buf[:PageSize]); err != nil {
		return err
	}
	if _, err := f.f.WriteAt(buf[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("pager: write page %d: %w", id, err)
	}
	f.stats.recordWrite(seq)
	return nil
}

// Sync flushes file contents to stable storage.
func (f *File) Sync() error {
	if err := faultPoint(FaultSync, f.path); err != nil {
		return err
	}
	return f.f.Sync()
}

// Close closes the underlying file.
func (f *File) Close() error { return f.f.Close() }
