// journal.go is the byte-level half of the durability layer: the record
// vocabulary (acquire/renew/release/expire), the CRC-framed encoding, and
// the replay loop with torn-tail truncation.
//
// The journal (on-disk format 2) is an append-only sequence of frames
// after an 8-byte magic:
//
//	[4B payload length, LE] [4B CRC-32C (Castagnoli) of payload] [payload]
//
// CRC-32C is the polynomial binproto already uses, and the one with a
// hardware path at a journal record's 10–30 bytes. A crash can tear the
// tail of the file mid-frame (length header cut short, payload cut short,
// or a payload whose CRC no longer matches the header written moments
// earlier). Replay recovers the longest valid prefix: it applies frames
// until the first one that fails any check and truncates the file there,
// so the journal is again well-formed for appending. Everything before
// the torn frame was fully written and CRC-verified; everything after it
// is unreachable garbage by construction (frames are written with a
// single buffered write each, in order).
//
// Records are identified by (name, token): the fencing token makes replay
// idempotent and order-tolerant across names — a release or expire only
// deletes the entry whose token it was minted for, so replaying a stale
// prefix over a newer snapshot cannot resurrect or kill the wrong lease
// (see fold.apply).
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/lease"
)

// journalMagic identifies a journal file; the trailing digit is the
// on-disk format version, shared with snapshotMagic.
const journalMagic = "RLRNJNL2"

// FormatError reports a data file written in an on-disk format version
// this build does not read. There is one reader per file, for the current
// version: retire an older directory by draining the old server (or
// letting its leases lapse) and starting the new one on an empty one.
type FormatError struct {
	File    string // base name of the refused file
	Version byte   // the version character its magic carries
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("persist: %s is on-disk format %c; this build reads only format %c",
		e.File, e.Version, journalMagic[len(journalMagic)-1])
}

// checkMagic verifies that buf, the contents of the data file path, opens
// with magic: a file of the same family at another version is a
// *FormatError, anything else that is not magic is foreign.
func checkMagic(path string, buf []byte, magic string) error {
	if v := len(magic) - 1; len(buf) > v && string(buf[:v]) == magic[:v] {
		if buf[v] == magic[v] {
			return nil
		}
		return &FormatError{File: filepath.Base(path), Version: buf[v]}
	}
	return fmt.Errorf("persist: %s: bad magic", filepath.Base(path))
}

// readJournal reads the journal file at path and returns the frames that
// follow its magic. ok is false, with buf the whole file, when there is no
// journal to scan: the file is missing, or a crash tore the magic itself.
func readJournal(path string) (buf []byte, ok bool, err error) {
	buf, err = os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("persist: journal: %w", err)
	}
	if len(buf) < len(journalMagic) {
		return buf, false, nil
	}
	if err := checkMagic(path, buf, journalMagic); err != nil {
		return nil, false, err
	}
	return buf[len(journalMagic):], true, nil
}

// maxFrame is the sanity cap on a single frame's payload length. A torn
// or corrupt length header could otherwise claim a multi-gigabyte frame
// and stall replay; no legitimate record (op + varints + a 1 MiB-capped
// HTTP request's owner/meta) approaches it.
const maxFrame = 1 << 24

// op is a journal record type.
type op byte

const (
	opAcquire op = 1 // full lease: name, token, expiry, owner, meta
	opRenew   op = 2 // name, token, new expiry
	opRelease op = 3 // name, token — voluntary hand-back
	opExpire  op = 4 // name, token — TTL lapse reclaimed
)

// record is one journal entry. expiresAt (UnixNano) is meaningful for
// opAcquire and opRenew; owner and meta only for opAcquire.
type record struct {
	op        op
	name      int
	token     uint64
	expiresAt int64
	owner     string
	meta      map[string]string
}

// recordFromLease builds the opAcquire record for l. The meta map is
// referenced, not copied: the manager never mutates a granted lease's
// meta in place, and the record is encoded before the observer returns.
func recordFromLease(l lease.Lease) record {
	return record{
		op:        opAcquire,
		name:      l.Name,
		token:     l.Token,
		expiresAt: l.ExpiresAt.UnixNano(),
		owner:     l.Owner,
		meta:      l.Meta,
	}
}

// appendPayload appends r's payload encoding (everything inside the
// frame) to b and returns the extended slice.
func appendPayload(b []byte, r record) []byte {
	b = append(b, byte(r.op))
	b = binary.AppendUvarint(b, uint64(r.name))
	b = binary.AppendUvarint(b, r.token)
	switch r.op {
	case opAcquire:
		b = binary.AppendVarint(b, r.expiresAt)
		b = binary.AppendUvarint(b, uint64(len(r.owner)))
		b = append(b, r.owner...)
		b = binary.AppendUvarint(b, uint64(len(r.meta)))
		for k, v := range r.meta {
			b = binary.AppendUvarint(b, uint64(len(k)))
			b = append(b, k...)
			b = binary.AppendUvarint(b, uint64(len(v)))
			b = append(b, v...)
		}
	case opRenew:
		b = binary.AppendVarint(b, r.expiresAt)
	}
	return b
}

// castagnoli is the CRC-32C table every frame checksum uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeader is the length and checksum that precede a frame's payload.
const frameHeader = 8

// beginFrame reserves a frame header at the end of b. The payload is then
// appended straight behind it and endFrame fills the header in, so a
// record is encoded once and copied nowhere.
func beginFrame(b []byte) []byte { return append(b, 0, 0, 0, 0, 0, 0, 0, 0) }

// endFrame completes the frame that beginFrame opened at b[start:].
func endFrame(b []byte, start int) []byte {
	payload := b[start+frameHeader:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(payload, castagnoli))
	return b
}

// appendRecord appends r's frame to b.
func appendRecord(b []byte, r record) []byte {
	start := len(b)
	return endFrame(appendPayload(beginFrame(b), r), start)
}

// nextFrame pops one checksummed payload off the front of buf. ok is false
// when what is there is not a whole valid frame: a header or payload cut
// short, a length beyond maxFrame, a checksum mismatch.
func nextFrame(buf []byte) (payload, rest []byte, ok bool) {
	if len(buf) < frameHeader {
		return nil, buf, false
	}
	length := int(binary.LittleEndian.Uint32(buf))
	sum := binary.LittleEndian.Uint32(buf[4:])
	if length > maxFrame || len(buf)-frameHeader < length {
		return nil, buf, false
	}
	payload = buf[frameHeader : frameHeader+length]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, buf, false
	}
	return payload, buf[frameHeader+length:], true
}

// cursor is a bounds-checked reader over a decoded payload.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("persist: short or malformed %s at offset %d", what, c.off)
	}
}

func (c *cursor) byte(what string) byte {
	if c.err != nil || c.off >= len(c.b) {
		c.fail(what)
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) uvarint(what string) uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail(what)
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) varint(what string) int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.fail(what)
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) str(what string) string {
	n := c.uvarint(what + " length")
	if c.err != nil {
		return ""
	}
	if uint64(len(c.b)-c.off) < n {
		c.fail(what)
		return ""
	}
	s := string(c.b[c.off : c.off+int(n)])
	c.off += int(n)
	return s
}

// decodePayload parses one frame payload back into a record.
func decodePayload(p []byte) (record, error) {
	c := &cursor{b: p}
	r := record{op: op(c.byte("op"))}
	r.name = int(c.uvarint("name"))
	r.token = c.uvarint("token")
	switch r.op {
	case opAcquire:
		r.expiresAt = c.varint("expires_at")
		r.owner = c.str("owner")
		if n := c.uvarint("meta count"); n > 0 && c.err == nil {
			// Each entry is at least its two length bytes: a count read off
			// disk never sizes the map beyond what the payload can hold.
			if n > uint64(len(c.b)-c.off)/2 {
				c.fail("meta count")
				break
			}
			r.meta = make(map[string]string, n)
			for i := uint64(0); i < n && c.err == nil; i++ {
				k := c.str("meta key")
				r.meta[k] = c.str("meta value")
			}
		}
	case opRenew:
		r.expiresAt = c.varint("expires_at")
	case opRelease, opExpire:
	default:
		return record{}, fmt.Errorf("persist: unknown record op %d", r.op)
	}
	if c.err != nil {
		return record{}, c.err
	}
	if c.off != len(p) {
		return record{}, fmt.Errorf("persist: %d trailing bytes after record", len(p)-c.off)
	}
	return r, nil
}

// scanFrames walks the framed region of buf (magic already stripped),
// invoking apply for every valid record, and returns the byte length of
// the longest valid prefix plus the number of records applied. The first
// frame that is short, oversized, CRC-mismatched or undecodable ends the
// scan — that is the torn tail; the caller truncates there.
func scanFrames(buf []byte, apply func(record)) (valid int64, n int) {
	rest := buf
	for {
		payload, after, ok := nextFrame(rest)
		if !ok {
			break
		}
		rec, err := decodePayload(payload)
		if err != nil {
			break
		}
		apply(rec)
		rest = after
		n++
	}
	return int64(len(buf) - len(rest)), n
}
