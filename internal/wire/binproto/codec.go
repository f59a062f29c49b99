package binproto

import (
	"encoding/binary"

	"repro/internal/wire"
	"repro/lease"
)

// Payload layouts (all integers big-endian, str = uint16 length + bytes):
//
//	TAcquireBatch  req:  ttlMs i64 | count u32 | owner str | metaCount u16 {k str, v str}*
//	               resp: count u32 | count * (name i64 | token u64 | expiresMs i64)
//	TRenewBatch    req:  ttlMs i64 | count u32 | count * (name i64 | token u64)
//	               resp: count u32 | count * (code u8 | name i64 | token u64 | expiresMs i64)
//	TReleaseBatch  req:  count u32 | count * (name i64 | token u64)
//	               resp: count u32 | count * code u8
//	TError         resp: code u8 | msg str
//
// Batch counts are validated against the actual payload length BEFORE
// any slice is grown, so a hostile count cannot force an allocation the
// frame's bytes don't pay for.

// reqItemSize is the wire size of one (name, token) batch-request item;
// renewRespItemSize one renew-batch response item; leaseSize one lease.
const (
	reqItemSize       = 16
	renewRespItemSize = 25
	leaseSize         = 24
)

// Lease is the binary wire form of one granted lease. Owner and meta do
// not travel on the binary surface — the acquirer knows what it sent,
// and the hot renew path has no use for them.
type Lease struct {
	Name      int64
	Token     uint64
	ExpiresMs int64
}

// RenewResult is one decoded renew-batch response item.
type RenewResult struct {
	Code      byte
	Name      int64
	Token     uint64
	ExpiresMs int64
}

// reader is a bounds-checked cursor over a payload; every take reports
// truncation through ok instead of panicking.
type reader struct {
	p   []byte
	off int
}

func (r *reader) remaining() int { return len(r.p) - r.off }

func (r *reader) u16() (uint16, bool) {
	if r.remaining() < 2 {
		return 0, false
	}
	v := binary.BigEndian.Uint16(r.p[r.off:])
	r.off += 2
	return v, true
}

func (r *reader) u32() (uint32, bool) {
	if r.remaining() < 4 {
		return 0, false
	}
	v := binary.BigEndian.Uint32(r.p[r.off:])
	r.off += 4
	return v, true
}

func (r *reader) u64() (uint64, bool) {
	if r.remaining() < 8 {
		return 0, false
	}
	v := binary.BigEndian.Uint64(r.p[r.off:])
	r.off += 8
	return v, true
}

func (r *reader) i64() (int64, bool) {
	v, ok := r.u64()
	return int64(v), ok
}

func (r *reader) byte() (byte, bool) {
	if r.remaining() < 1 {
		return 0, false
	}
	b := r.p[r.off]
	r.off++
	return b, true
}

// str decodes a uint16-length-prefixed string. The byte copy is the one
// place decoding allocates, and only on the cold paths that carry
// strings at all.
func (r *reader) str() (string, bool) {
	n, ok := r.u16()
	if !ok || r.remaining() < int(n) {
		return "", false
	}
	s := string(r.p[r.off : r.off+int(n)])
	r.off += int(n)
	return s, true
}

// done returns ErrTrailingBytes if the payload has unconsumed bytes —
// a frame must be exactly its declared content.
func (r *reader) done() error {
	if r.remaining() != 0 {
		return ErrTrailingBytes
	}
	return nil
}

//renamed:noalloc
func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v>>8), byte(v))
}

//renamed:noalloc
func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

//renamed:noalloc
func appendU64(dst []byte, v uint64) []byte {
	return append(dst, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

//renamed:noalloc
func appendI64(dst []byte, v int64) []byte { return appendU64(dst, uint64(v)) }

func appendStr(dst []byte, s string) []byte {
	if len(s) > 0xFFFF {
		s = s[:0xFFFF]
	}
	dst = appendU16(dst, uint16(len(s)))
	return append(dst, s...)
}

func appendMeta(dst []byte, meta map[string]string) []byte {
	if len(meta) > 0xFFFF {
		// Unrepresentable; the server would reject the frame anyway at
		// MaxPayload long before 65k meta entries fit.
		meta = nil
	}
	dst = appendU16(dst, uint16(len(meta)))
	for k, v := range meta {
		dst = appendStr(dst, k)
		dst = appendStr(dst, v)
	}
	return dst
}

func decodeMeta(r *reader) (map[string]string, bool) {
	n, ok := r.u16()
	if !ok {
		return nil, false
	}
	if n == 0 {
		return nil, true
	}
	// Each entry costs at least 4 bytes of length prefixes; reject a
	// count the remaining bytes cannot possibly carry before allocating.
	if int(n)*4 > r.remaining() {
		return nil, false
	}
	m := make(map[string]string, n)
	for i := 0; i < int(n); i++ {
		k, ok := r.str()
		if !ok {
			return nil, false
		}
		v, ok := r.str()
		if !ok {
			return nil, false
		}
		m[k] = v
	}
	return m, true
}

// --- acquire ---

// AppendAcquireBatchReq encodes a TAcquireBatch request payload.
func AppendAcquireBatchReq(dst []byte, owner string, count int, ttlMs int64, meta map[string]string) []byte {
	dst = appendI64(dst, ttlMs)
	dst = appendU32(dst, uint32(count))
	dst = appendStr(dst, owner)
	return appendMeta(dst, meta)
}

// DecodeAcquireBatchReq decodes a TAcquireBatch request payload.
func DecodeAcquireBatchReq(p []byte) (owner string, count int, ttlMs int64, meta map[string]string, err error) {
	r := reader{p: p}
	ttlMs, ok := r.i64()
	if !ok {
		return "", 0, 0, nil, ErrTruncated
	}
	c, ok := r.u32()
	if !ok {
		return "", 0, 0, nil, ErrTruncated
	}
	if owner, ok = r.str(); !ok {
		return "", 0, 0, nil, ErrTruncated
	}
	if meta, ok = decodeMeta(&r); !ok {
		return "", 0, 0, nil, ErrTruncated
	}
	return owner, int(c), ttlMs, meta, r.done()
}

// AppendLease encodes one granted lease inside a TAcquireBatch response.
//
//renamed:noalloc
func AppendLease(dst []byte, name int64, token uint64, expiresMs int64) []byte {
	dst = appendI64(dst, name)
	dst = appendU64(dst, token)
	return appendI64(dst, expiresMs)
}

func decodeLease(r *reader) (Lease, bool) {
	name, ok := r.i64()
	if !ok {
		return Lease{}, false
	}
	token, ok := r.u64()
	if !ok {
		return Lease{}, false
	}
	exp, ok := r.i64()
	if !ok {
		return Lease{}, false
	}
	return Lease{Name: name, Token: token, ExpiresMs: exp}, true
}

// AppendLeasesRespHeader opens a TAcquireBatch response; follow with one
// AppendLease per granted lease.
//
//renamed:noalloc
func AppendLeasesRespHeader(dst []byte, count int) []byte {
	return appendU32(dst, uint32(count))
}

// DecodeLeasesResp decodes a TAcquireBatch response into out (reused
// when capacity allows).
//
//renamed:noalloc
func DecodeLeasesResp(p []byte, out []Lease) ([]Lease, error) {
	r := reader{p: p}
	count, ok := r.u32()
	if !ok {
		return nil, ErrTruncated
	}
	if int(count)*leaseSize != r.remaining() {
		return nil, ErrTruncated
	}
	out = out[:0]
	for i := 0; i < int(count); i++ {
		l, _ := decodeLease(&r)
		out = append(out, l)
	}
	return out, r.done()
}

// --- renew ---

// AppendRenewBatchReq encodes a TRenewBatch request payload from wire
// items (the client-side shape).
func AppendRenewBatchReq(dst []byte, ttlMs int64, items []wire.Item) []byte {
	dst = appendI64(dst, ttlMs)
	dst = appendU32(dst, uint32(len(items)))
	for _, it := range items {
		dst = appendI64(dst, int64(it.Name))
		dst = appendU64(dst, it.Token)
	}
	return dst
}

// DecodeRenewBatchReq decodes a TRenewBatch request directly into a
// lease.RenewItem slice (reused when capacity allows) — the server-side
// shape, no intermediate representation, zero allocations once the
// slice has grown to the connection's working batch size.
func DecodeRenewBatchReq(p []byte, items []lease.RenewItem) (ttlMs int64, out []lease.RenewItem, err error) {
	r := reader{p: p}
	ttlMs, ok := r.i64()
	if !ok {
		return 0, nil, ErrTruncated
	}
	count, ok := r.u32()
	if !ok {
		return 0, nil, ErrTruncated
	}
	if int(count)*reqItemSize != r.remaining() {
		return 0, nil, ErrTruncated
	}
	items = items[:0]
	for i := 0; i < int(count); i++ {
		name, _ := r.i64()
		token, _ := r.u64()
		items = append(items, lease.RenewItem{Name: int(name), Token: token})
	}
	return ttlMs, items, r.done()
}

// AppendBatchRespHeader opens a TRenewBatch/TReleaseBatch response.
//
//renamed:noalloc
func AppendBatchRespHeader(dst []byte, count int) []byte {
	return appendU32(dst, uint32(count))
}

// AppendRenewResult encodes one renew-batch response item. On failure
// (code != CodeOK) the lease fields travel as zeros.
//
//renamed:noalloc
func AppendRenewResult(dst []byte, code byte, name int64, token uint64, expiresMs int64) []byte {
	dst = append(dst, code)
	dst = appendI64(dst, name)
	dst = appendU64(dst, token)
	return appendI64(dst, expiresMs)
}

// DecodeRenewBatchResp decodes a TRenewBatch response into out (reused
// when capacity allows).
//
//renamed:noalloc
func DecodeRenewBatchResp(p []byte, out []RenewResult) ([]RenewResult, error) {
	r := reader{p: p}
	count, ok := r.u32()
	if !ok {
		return nil, ErrTruncated
	}
	if int(count)*renewRespItemSize != r.remaining() {
		return nil, ErrTruncated
	}
	out = out[:0]
	for i := 0; i < int(count); i++ {
		code, _ := r.byte()
		name, _ := r.i64()
		token, _ := r.u64()
		exp, _ := r.i64()
		out = append(out, RenewResult{Code: code, Name: name, Token: token, ExpiresMs: exp})
	}
	return out, r.done()
}

// --- release ---

// AppendReleaseBatchReq encodes a TReleaseBatch request payload.
func AppendReleaseBatchReq(dst []byte, items []wire.Item) []byte {
	dst = appendU32(dst, uint32(len(items)))
	for _, it := range items {
		dst = appendI64(dst, int64(it.Name))
		dst = appendU64(dst, it.Token)
	}
	return dst
}

// DecodeReleaseBatchReq decodes a TReleaseBatch request into a
// lease.ReleaseItem slice (reused when capacity allows).
func DecodeReleaseBatchReq(p []byte, items []lease.ReleaseItem) ([]lease.ReleaseItem, error) {
	r := reader{p: p}
	count, ok := r.u32()
	if !ok {
		return nil, ErrTruncated
	}
	if int(count)*reqItemSize != r.remaining() {
		return nil, ErrTruncated
	}
	items = items[:0]
	for i := 0; i < int(count); i++ {
		name, _ := r.i64()
		token, _ := r.u64()
		items = append(items, lease.ReleaseItem{Name: int(name), Token: token})
	}
	return items, r.done()
}

// DecodeReleaseBatchResp decodes a TReleaseBatch response (one code
// byte per item) into out.
//
//renamed:noalloc
func DecodeReleaseBatchResp(p []byte, out []byte) ([]byte, error) {
	r := reader{p: p}
	count, ok := r.u32()
	if !ok {
		return nil, ErrTruncated
	}
	if int(count) != r.remaining() {
		return nil, ErrTruncated
	}
	out = append(out[:0], r.p[r.off:]...)
	return out, nil
}

// --- error ---

// AppendErrorResp encodes a TError response payload.
func AppendErrorResp(dst []byte, code byte, msg string) []byte {
	dst = append(dst, code)
	return appendStr(dst, msg)
}

// DecodeErrorResp decodes a TError response payload.
func DecodeErrorResp(p []byte) (code byte, msg string, err error) {
	r := reader{p: p}
	code, ok := r.byte()
	if !ok {
		return 0, "", ErrTruncated
	}
	if msg, ok = r.str(); !ok {
		return 0, "", ErrTruncated
	}
	return code, msg, r.done()
}

// DecodePayload decodes any frame payload by header type, discarding
// the result — the fuzz harness's single entry point proving that no
// input panics or over-allocates. Request types decode with their
// request codec, response types with their response codec.
func DecodePayload(h Header, p []byte) error {
	if len(p) != int(h.Len) {
		return ErrTruncated
	}
	if err := VerifyPayload(h, p); err != nil {
		return err
	}
	var err error
	switch h.Type {
	case TAcquireBatch:
		_, _, _, _, err = DecodeAcquireBatchReq(p)
	case TRenewBatch:
		_, _, err = DecodeRenewBatchReq(p, nil)
	case TReleaseBatch:
		_, err = DecodeReleaseBatchReq(p, nil)
	case TAcquireBatch | RespBit:
		_, err = DecodeLeasesResp(p, nil)
	case TRenewBatch | RespBit:
		_, err = DecodeRenewBatchResp(p, nil)
	case TReleaseBatch | RespBit:
		_, err = DecodeReleaseBatchResp(p, nil)
	case TError:
		_, _, err = DecodeErrorResp(p)
	default:
		err = ErrUnknownType
	}
	return err
}
