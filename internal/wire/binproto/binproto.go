// Package binproto is the length-prefixed binary wire protocol of
// cmd/renamed's -listen-bin port: the fast transport counterpart of the
// JSON /v1 surface, sharing the same operations and per-item result
// codes (wire.CodeFor round-trips through CodeByte/CodeString) so the
// two surfaces cannot drift semantically.
//
// Every frame is a fixed 20-byte header followed by a payload:
//
//	offset size  field
//	0      2     magic "RB"
//	2      1     version (2)
//	3      1     frame type (request 0x02, 0x04, 0x06; response =
//	             type|0x80; error response 0xFF)
//	4      8     request ID (uint64, big-endian) — echoed verbatim on
//	             the response, and rendered %016x it is the same shape
//	             as the HTTP X-Request-Id, so one slow binary renew
//	             joins against the server's slow-op log line
//	12     4     payload length (uint32, big-endian, <= MaxPayload)
//	16     4     payload CRC-32C (Castagnoli, big-endian) — TCP's
//	             16-bit checksum misses enough bit flips at lease-
//	             heartbeat volumes to matter, and a corrupted renew
//	             that parses cleanly is a silent safety hazard; both
//	             ends verify before decoding and treat a mismatch as
//	             stream loss (ErrChecksum), never as data
//
// All integers are big-endian and fixed-width — no varints — so item
// offsets inside a batch are computable without scanning and the hot
// renew path decodes with zero allocations into caller-owned slices.
// Strings (owner, meta, error messages) are uint16 length + bytes; they
// appear only on the cold acquire/error paths.
//
// Connections are persistent and requests may be PIPELINED: a client
// can write any number of request frames without waiting; the server
// processes each connection's frames in order and responds in the same
// order, echoing each request ID. A response frame's type is the
// request's type with the high bit set, or TError (0xFF) when the
// request as a whole failed (the per-item codes inside batch responses
// cover item-level failures, mirroring the JSON surface's 200-with-
// per-item-results contract).
//
// Decoding is hostile-input safe: torn frames, oversized declared
// lengths, truncated headers, corrupted payloads and garbage bytes
// return typed errors (ErrBadMagic, ErrBadVersion, ErrUnknownType,
// ErrTooLarge, ErrTruncated, ErrTrailingBytes, ErrChecksum) and never
// panic or allocate more than the input length justifies — the same
// torn-tail discipline as lease/persist's journal replay.
package binproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	renaming "repro"
	"repro/internal/wire"
	"repro/lease"
)

const (
	// HeaderLen is the fixed frame-header size.
	HeaderLen = 20
	// Version is the protocol version carried in every frame. Version 2
	// added the payload CRC-32C at header offset 16; version-1 frames
	// are rejected (the port is private to this repo's client, so both
	// ends upgrade together).
	Version = 2
	// MaxPayload bounds a frame's declared payload length — the binary
	// twin of the HTTP surface's 1 MiB body limit. A header declaring
	// more is rejected before any allocation.
	MaxPayload = 1 << 20
)

// Magic bytes open every frame; a stream positioned anywhere else is
// desynchronized and the connection must be dropped.
const (
	Magic0 = 'R'
	Magic1 = 'B'
)

// Type discriminates frames. A successful response echoes the request
// type with the high bit set; TError is the whole-request failure
// response. Acquire, renew and release exist in batch shape only — one
// item is a batch of one. Bytes 0x01, 0x03, 0x05 (the single-item forms),
// 0x07 (stats, now HTTP /metrics only) and 0x08 (resize, now HTTP
// /v1/resize only) are retired: they are never reused, and ParseHeader
// rejects them as ErrUnknownType.
type Type byte

const (
	TAcquireBatch Type = 0x02
	TRenewBatch   Type = 0x04
	TReleaseBatch Type = 0x06

	// RespBit marks a response frame: response type = request | RespBit.
	RespBit Type = 0x80
	// TError is the response to a request that failed as a whole
	// (capacity, closed manager, malformed payload). Payload: result
	// code byte + uint16-length message.
	TError Type = 0xFF
)

// Typed decode errors. Every malformed input maps onto one of these;
// decoding never panics.
var (
	ErrBadMagic      = errors.New("binproto: bad magic")
	ErrBadVersion    = errors.New("binproto: unsupported version")
	ErrUnknownType   = errors.New("binproto: unknown frame type")
	ErrTooLarge      = errors.New("binproto: declared payload exceeds MaxPayload")
	ErrTruncated     = errors.New("binproto: truncated payload")
	ErrTrailingBytes = errors.New("binproto: trailing bytes after payload")
	ErrChecksum      = errors.New("binproto: payload checksum mismatch")
)

// Per-item and whole-request result codes, one byte on the wire.
// CodeOK..CodeInternal mirror internal/wire's string codes exactly;
// CodeExhausted and CodeBadRequest cover the request-level failures the
// HTTP surface expresses as 503 and 400.
const (
	CodeOK          byte = 0
	CodeUnknownName byte = 1
	CodeWrongToken  byte = 2
	CodeExpired     byte = 3
	CodeClosed      byte = 4
	CodeCancelled   byte = 5
	CodeInternal    byte = 6
	CodeExhausted   byte = 7
	CodeBadRequest  byte = 8
)

// CodeByte maps a wire string code ("" = ok) onto its byte.
func CodeByte(code string) byte {
	switch code {
	case "":
		return CodeOK
	case wire.CodeUnknownName:
		return CodeUnknownName
	case wire.CodeWrongToken:
		return CodeWrongToken
	case wire.CodeExpired:
		return CodeExpired
	case wire.CodeClosed:
		return CodeClosed
	case wire.CodeCancelled:
		return CodeCancelled
	default:
		return CodeInternal
	}
}

// CodeString is CodeByte's inverse for the codes shared with the JSON
// surface; the binary-only codes render as themselves.
func CodeString(b byte) string {
	switch b {
	case CodeOK:
		return ""
	case CodeUnknownName:
		return wire.CodeUnknownName
	case CodeWrongToken:
		return wire.CodeWrongToken
	case CodeExpired:
		return wire.CodeExpired
	case CodeClosed:
		return wire.CodeClosed
	case CodeCancelled:
		return wire.CodeCancelled
	case CodeExhausted:
		return "exhausted"
	case CodeBadRequest:
		return "bad_request"
	default:
		return wire.CodeInternal
	}
}

// CodeForErr maps a request-level service error onto its wire byte —
// the binary twin of the HTTP writeError status mapping.
func CodeForErr(err error) byte {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, renaming.ErrNamespaceExhausted), errors.Is(err, lease.ErrCapacity):
		return CodeExhausted
	case errors.Is(err, renaming.ErrCancelled):
		return CodeCancelled
	case errors.Is(err, renaming.ErrBadConfig),
		errors.Is(err, ErrTruncated), errors.Is(err, ErrTrailingBytes),
		errors.Is(err, ErrTooLarge), errors.Is(err, ErrUnknownType),
		errors.Is(err, ErrBadMagic), errors.Is(err, ErrBadVersion),
		errors.Is(err, ErrChecksum):
		return CodeBadRequest
	case errors.Is(err, lease.ErrWrongToken):
		return CodeWrongToken
	case errors.Is(err, lease.ErrExpired):
		return CodeExpired
	case errors.Is(err, lease.ErrUnknownName):
		return CodeUnknownName
	case errors.Is(err, lease.ErrClosed):
		return CodeClosed
	default:
		return CodeInternal
	}
}

// ErrFor rebuilds a typed error from a result byte, preserving the
// server-rendered message — the client-side inverse of CodeForErr.
// Shared codes round-trip to the same sentinels as wire.ErrFor, so
// errors.Is works identically over either transport.
func ErrFor(b byte, msg string) error {
	switch b {
	case CodeOK:
		return nil
	case CodeExhausted:
		if msg == "" {
			return lease.ErrCapacity
		}
		return fmt.Errorf("%w (server: %s)", lease.ErrCapacity, msg)
	case CodeBadRequest:
		if msg == "" {
			msg = "bad request"
		}
		return fmt.Errorf("renamed: %w: %s", renaming.ErrBadConfig, msg)
	default:
		return wire.ErrFor(CodeString(b), msg)
	}
}

// Header is a parsed frame header.
type Header struct {
	Type Type
	ID   uint64
	Len  uint32
	CRC  uint32 // CRC-32C of the payload; verify with VerifyPayload
}

// castagnoli is the CRC-32C polynomial table. Castagnoli over IEEE
// because amd64 and arm64 both execute it as a hardware instruction —
// the checksum costs ~0.1ns/byte, invisible next to the syscall.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the frame payload checksum: CRC-32C.
//
//renamed:noalloc
func Checksum(payload []byte) uint32 {
	return crc32.Checksum(payload, castagnoli)
}

// VerifyPayload checks a received payload against its header's CRC.
// A mismatch means bytes were damaged in flight; the frame must be
// treated as stream loss (drop the connection), never decoded.
//
//renamed:noalloc
func VerifyPayload(h Header, p []byte) error {
	if Checksum(p) != h.CRC {
		return ErrChecksum
	}
	return nil
}

// PutHeader writes a frame header into dst, which must be at least
// HeaderLen bytes. crc is the payload's CRC-32C (Checksum).
//
//renamed:noalloc
func PutHeader(dst []byte, t Type, id uint64, payloadLen, crc uint32) {
	dst[0] = Magic0
	dst[1] = Magic1
	dst[2] = Version
	dst[3] = byte(t)
	binary.BigEndian.PutUint64(dst[4:12], id)
	binary.BigEndian.PutUint32(dst[12:16], payloadLen)
	binary.BigEndian.PutUint32(dst[16:20], crc)
}

// ParseHeader validates and decodes a frame header. The error order is
// deliberate: magic first (a desynchronized stream should read as such,
// not as a bogus version), then version, type, and declared length.
//
//renamed:noalloc
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderLen {
		return Header{}, ErrTruncated
	}
	if b[0] != Magic0 || b[1] != Magic1 {
		return Header{}, ErrBadMagic
	}
	if b[2] != Version {
		return Header{}, ErrBadVersion
	}
	h := Header{
		Type: Type(b[3]),
		ID:   binary.BigEndian.Uint64(b[4:12]),
		Len:  binary.BigEndian.Uint32(b[12:16]),
		CRC:  binary.BigEndian.Uint32(b[16:20]),
	}
	if !validType(h.Type) {
		return Header{}, ErrUnknownType
	}
	if h.Len > MaxPayload {
		return Header{}, ErrTooLarge
	}
	return h, nil
}

func validType(t Type) bool {
	if t == TError {
		return true
	}
	switch t &^ RespBit {
	case TAcquireBatch, TRenewBatch, TReleaseBatch:
		return true
	}
	return false
}

// String renders a request type in route-name form ("renew_batch"), the
// op label shared by slow-op logs, client errors and the HTTP routes.
func (t Type) String() string {
	switch t {
	case TAcquireBatch:
		return "acquire_batch"
	case TRenewBatch:
		return "renew_batch"
	case TReleaseBatch:
		return "release_batch"
	default:
		return fmt.Sprintf("type_0x%02x", byte(t))
	}
}

// BeginFrame appends a header placeholder for one frame and returns the
// extended buffer plus the frame's start offset; encode the payload with
// the Append* helpers, then patch the length and CRC with EndFrame. The
// begin/end split lets one reusable buffer carry header + payload with
// no separate length pass and no allocation beyond the buffer's growth.
//
//renamed:noalloc
func BeginFrame(dst []byte, t Type, id uint64) ([]byte, int) {
	start := len(dst)
	var hdr [HeaderLen]byte
	PutHeader(hdr[:], t, id, 0, 0)
	return append(dst, hdr[:]...), start
}

// EndFrame patches the payload length and CRC of the frame opened at
// start, once the payload bytes between them are final.
//
//renamed:noalloc
func EndFrame(buf []byte, start int) []byte {
	payload := buf[start+HeaderLen:]
	binary.BigEndian.PutUint32(buf[start+12:start+16], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[start+16:start+20], Checksum(payload))
	return buf
}
