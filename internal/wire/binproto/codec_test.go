package binproto

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	renaming "repro"
	"repro/internal/wire"
	"repro/lease"
)

func TestHeaderRoundTrip(t *testing.T) {
	var buf [HeaderLen]byte
	PutHeader(buf[:], TRenewBatch, 0xDEADBEEFCAFE, 1234, 0xC0FFEE)
	h, err := ParseHeader(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	want := Header{Type: TRenewBatch, ID: 0xDEADBEEFCAFE, Len: 1234, CRC: 0xC0FFEE}
	if h != want {
		t.Fatalf("header = %+v, want %+v", h, want)
	}
}

func TestParseHeaderErrors(t *testing.T) {
	good := make([]byte, HeaderLen)
	PutHeader(good, TRenewBatch, 1, 0, Checksum(nil))
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"truncated", func(b []byte) []byte { return b[:HeaderLen-1] }, ErrTruncated},
		{"empty", func(b []byte) []byte { return nil }, ErrTruncated},
		{"bad magic0", func(b []byte) []byte { b[0] = 'X'; return b }, ErrBadMagic},
		{"bad magic1", func(b []byte) []byte { b[1] = 'X'; return b }, ErrBadMagic},
		{"bad version", func(b []byte) []byte { b[2] = 99; return b }, ErrBadVersion},
		{"zero type", func(b []byte) []byte { b[3] = 0; return b }, ErrUnknownType},
		{"type past resize", func(b []byte) []byte { b[3] = 0x09; return b }, ErrUnknownType},
		{"resp of bad type", func(b []byte) []byte { b[3] = 0x89; return b }, ErrUnknownType},
		// The single-item request bytes, stats and the resize op are retired,
		// not reusable.
		{"retired acquire", func(b []byte) []byte { b[3] = 0x01; return b }, ErrUnknownType},
		{"retired renew", func(b []byte) []byte { b[3] = 0x03; return b }, ErrUnknownType},
		{"retired release", func(b []byte) []byte { b[3] = 0x05; return b }, ErrUnknownType},
		{"retired stats", func(b []byte) []byte { b[3] = 0x07; return b }, ErrUnknownType},
		{"retired resize", func(b []byte) []byte { b[3] = 0x08; return b }, ErrUnknownType},
		{"resp of retired type", func(b []byte) []byte { b[3] = 0x83; return b }, ErrUnknownType},
		{"resp of retired stats", func(b []byte) []byte { b[3] = 0x87; return b }, ErrUnknownType},
		{"resp of retired resize", func(b []byte) []byte { b[3] = 0x88; return b }, ErrUnknownType},
		{"oversized len", func(b []byte) []byte { b[12] = 0xFF; return b }, ErrTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), good...))
			if _, err := ParseHeader(b); !errors.Is(err, tc.want) {
				t.Fatalf("ParseHeader = %v, want %v", err, tc.want)
			}
		})
	}
	// Magic-first ordering: garbage everywhere must still read as bad
	// magic, not as a version or type complaint.
	if _, err := ParseHeader(bytes.Repeat([]byte{0xAA}, HeaderLen)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("garbage header = %v, want ErrBadMagic", err)
	}
}

// TestTypeString: every request type ParseHeader accepts has a route
// name — the one op label logs and client errors share; anything else,
// a retired byte included, renders as its hex.
func TestTypeString(t *testing.T) {
	for typ, want := range map[Type]string{
		TAcquireBatch: "acquire_batch",
		TRenewBatch:   "renew_batch",
		TReleaseBatch: "release_batch",
		0x01:          "type_0x01",
		0x07:          "type_0x07",
		0x08:          "type_0x08",
	} {
		if got := typ.String(); got != want {
			t.Errorf("Type(%#02x).String() = %q, want %q", byte(typ), got, want)
		}
	}
	for b := 0; b < int(RespBit); b++ {
		if typ := Type(b); validType(typ) && strings.HasPrefix(typ.String(), "type_0x") {
			t.Errorf("request type %#02x is valid but has no route name", b)
		}
	}
}

func TestBeginEndFrame(t *testing.T) {
	buf, start := BeginFrame(nil, TRenewBatch, 42)
	buf = AppendRenewBatchReq(buf, 30_000, []wire.Item{{Name: 7, Token: 0xABC}})
	buf = EndFrame(buf, start)

	h, err := ParseHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != TRenewBatch || h.ID != 42 || int(h.Len) != len(buf)-HeaderLen {
		t.Fatalf("frame header = %+v over %d payload bytes", h, len(buf)-HeaderLen)
	}
	ttl, items, err := DecodeRenewBatchReq(buf[HeaderLen:], nil)
	if err != nil || ttl != 30_000 || len(items) != 1 || items[0] != (lease.RenewItem{Name: 7, Token: 0xABC}) {
		t.Fatalf("renew batch req round trip = (%d, %+v, %v)", ttl, items, err)
	}

	// Two frames in one buffer (pipelining): the second begins where the
	// first's declared length ends.
	buf, start2 := BeginFrame(buf, TReleaseBatch, 43)
	buf = EndFrame(AppendReleaseBatchReq(buf, nil), start2)
	second := buf[HeaderLen+int(h.Len):]
	h2, err := ParseHeader(second)
	if err != nil || h2.Type != TReleaseBatch || h2.ID != 43 || h2.Len != 4 {
		t.Fatalf("second frame = %+v, %v", h2, err)
	}
}

// TestAcquireReqRoundTrip covers the string-carrying half of the acquire
// request: owner, meta map, and the exact-length rule.
func TestAcquireReqRoundTrip(t *testing.T) {
	meta := map[string]string{"rack": "r12", "az": "b"}
	p := AppendAcquireBatchReq(nil, "worker-9", 1, 15_000, meta)
	owner, count, ttl, gotMeta, err := DecodeAcquireBatchReq(p)
	if err != nil || owner != "worker-9" || count != 1 || ttl != 15_000 {
		t.Fatalf("acquire req = (%q, %d, %d, %v)", owner, count, ttl, err)
	}
	if !reflect.DeepEqual(gotMeta, meta) {
		t.Fatalf("meta = %v, want %v", gotMeta, meta)
	}

	// Empty meta decodes as nil, and the payload is exact-length.
	p = AppendAcquireBatchReq(nil, "", 1, 0, nil)
	if _, _, _, m, err := DecodeAcquireBatchReq(p); err != nil || m != nil {
		t.Fatalf("empty acquire req = (%v, %v)", m, err)
	}
	if _, _, _, _, err := DecodeAcquireBatchReq(append(p, 0)); !errors.Is(err, ErrTrailingBytes) {
		t.Fatalf("trailing byte = %v, want ErrTrailingBytes", err)
	}
}

func TestAcquireBatchReqRoundTrip(t *testing.T) {
	p := AppendAcquireBatchReq(nil, "batcher", 512, 9_000, map[string]string{"k": "v"})
	owner, count, ttl, meta, err := DecodeAcquireBatchReq(p)
	if err != nil || owner != "batcher" || count != 512 || ttl != 9_000 || meta["k"] != "v" {
		t.Fatalf("acquire batch req = (%q, %d, %d, %v, %v)", owner, count, ttl, meta, err)
	}
}

// TestLeaseRoundTrip: one granted lease is the one-item acquire
// response, and every cut through its bytes is a typed truncation.
func TestLeaseRoundTrip(t *testing.T) {
	p := AppendLease(AppendLeasesRespHeader(nil, 1), 31, 0xFEED, 1_700_000_000_123)
	ls, err := DecodeLeasesResp(p, nil)
	if err != nil || len(ls) != 1 || ls[0] != (Lease{Name: 31, Token: 0xFEED, ExpiresMs: 1_700_000_000_123}) {
		t.Fatalf("lease = %+v, %v", ls, err)
	}
	for cut := 0; cut < len(p); cut++ {
		if _, err := DecodeLeasesResp(p[:cut], nil); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestLeasesRespRoundTrip(t *testing.T) {
	p := AppendLeasesRespHeader(nil, 3)
	for i := 0; i < 3; i++ {
		p = AppendLease(p, int64(i), uint64(100+i), int64(1000*i))
	}
	out, err := DecodeLeasesResp(p, nil)
	if err != nil || len(out) != 3 || out[2] != (Lease{Name: 2, Token: 102, ExpiresMs: 2000}) {
		t.Fatalf("leases = %+v, %v", out, err)
	}
	// A count the bytes don't pay for is truncation, not an allocation.
	bad := AppendLeasesRespHeader(nil, 1<<30)
	if _, err := DecodeLeasesResp(bad, nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("hostile count = %v, want ErrTruncated", err)
	}
}

func TestRenewBatchRoundTrip(t *testing.T) {
	items := []wire.Item{{Name: 1, Token: 11}, {Name: 2, Token: 22}, {Name: 3, Token: 33}}
	p := AppendRenewBatchReq(nil, 20_000, items)
	ttl, got, err := DecodeRenewBatchReq(p, nil)
	if err != nil || ttl != 20_000 || len(got) != 3 {
		t.Fatalf("renew batch req = (%d, %v, %v)", ttl, got, err)
	}
	for i, it := range items {
		if got[i] != (lease.RenewItem{Name: it.Name, Token: it.Token}) {
			t.Fatalf("item %d = %+v", i, got[i])
		}
	}

	resp := AppendBatchRespHeader(nil, 2)
	resp = AppendRenewResult(resp, CodeOK, 1, 11, 5000)
	resp = AppendRenewResult(resp, CodeWrongToken, 0, 0, 0)
	results, err := DecodeRenewBatchResp(resp, nil)
	if err != nil || len(results) != 2 {
		t.Fatalf("renew batch resp = %v, %v", results, err)
	}
	if results[0] != (RenewResult{Code: CodeOK, Name: 1, Token: 11, ExpiresMs: 5000}) {
		t.Fatalf("result 0 = %+v", results[0])
	}
	if results[1].Code != CodeWrongToken {
		t.Fatalf("result 1 code = %d", results[1].Code)
	}

	// Count/length mismatch both ways.
	if _, _, err := DecodeRenewBatchReq(p[:len(p)-1], nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("torn req = %v", err)
	}
	if _, err := DecodeRenewBatchResp(resp[:len(resp)-1], nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("torn resp = %v", err)
	}
}

func TestReleaseRoundTrip(t *testing.T) {
	items := []wire.Item{{Name: 8, Token: 88}, {Name: 9, Token: 99}}
	bp := AppendReleaseBatchReq(nil, items)
	got, err := DecodeReleaseBatchReq(bp, nil)
	if err != nil || len(got) != 2 || got[1] != (lease.ReleaseItem{Name: 9, Token: 99}) {
		t.Fatalf("release batch req = %v, %v", got, err)
	}

	resp := AppendBatchRespHeader(nil, 2)
	resp = append(resp, CodeOK, CodeUnknownName)
	codes, err := DecodeReleaseBatchResp(resp, nil)
	if err != nil || len(codes) != 2 || codes[0] != CodeOK || codes[1] != CodeUnknownName {
		t.Fatalf("release batch resp = %v, %v", codes, err)
	}
}

func TestErrorRespRoundTrip(t *testing.T) {
	p := AppendErrorResp(nil, CodeExhausted, "namespace full")
	code, msg, err := DecodeErrorResp(p)
	if err != nil || code != CodeExhausted || msg != "namespace full" {
		t.Fatalf("error resp = (%d, %q, %v)", code, msg, err)
	}
}

// TestCodeRoundTrip: every byte code that has a wire string code must
// survive byte→string→byte, and the shared subset must agree with
// internal/wire's mapping so the two surfaces cannot drift.
func TestCodeRoundTrip(t *testing.T) {
	for b := byte(0); b <= CodeBadRequest; b++ {
		s := CodeString(b)
		if got := CodeByte(s); b <= CodeInternal && got != b {
			t.Errorf("code %d -> %q -> %d", b, s, got)
		}
	}
	// Shared codes agree with wire.CodeFor on the underlying sentinels.
	for _, tc := range []struct {
		err  error
		want byte
	}{
		{lease.ErrUnknownName, CodeUnknownName},
		{lease.ErrWrongToken, CodeWrongToken},
		{lease.ErrExpired, CodeExpired},
		{lease.ErrClosed, CodeClosed},
		{renaming.ErrCancelled, CodeCancelled},
		{lease.ErrCapacity, CodeExhausted},
		{renaming.ErrNamespaceExhausted, CodeExhausted},
		{renaming.ErrBadConfig, CodeBadRequest},
		{errors.New("mystery"), CodeInternal},
		{nil, CodeOK},
	} {
		if got := CodeForErr(tc.err); got != tc.want {
			t.Errorf("CodeForErr(%v) = %d, want %d", tc.err, got, tc.want)
		}
		if tc.err != nil && tc.want <= CodeInternal {
			if CodeByte(wire.CodeFor(tc.err)) != tc.want {
				t.Errorf("wire.CodeFor(%v) disagrees with CodeForErr", tc.err)
			}
		}
	}
}

// TestErrForSentinels: the client-side inverse rebuilds errors that
// errors.Is-match the same sentinels over either transport.
func TestErrForSentinels(t *testing.T) {
	for _, tc := range []struct {
		code byte
		want error
	}{
		{CodeUnknownName, lease.ErrUnknownName},
		{CodeWrongToken, lease.ErrWrongToken},
		{CodeExpired, lease.ErrExpired},
		{CodeClosed, lease.ErrClosed},
		{CodeCancelled, renaming.ErrCancelled},
		{CodeExhausted, lease.ErrCapacity},
		{CodeBadRequest, renaming.ErrBadConfig},
	} {
		if err := ErrFor(tc.code, "msg"); !errors.Is(err, tc.want) {
			t.Errorf("ErrFor(%d) = %v, want Is(%v)", tc.code, err, tc.want)
		}
	}
	if err := ErrFor(CodeOK, ""); err != nil {
		t.Errorf("ErrFor(CodeOK) = %v", err)
	}
}

// BenchmarkEncodeRenewBatch measures the hot client-side path: one
// pipelined renew-batch frame into a reused buffer. Must not allocate.
func BenchmarkEncodeRenewBatch(b *testing.B) {
	items := make([]wire.Item, 64)
	for i := range items {
		items[i] = wire.Item{Name: i, Token: uint64(i) * 7}
	}
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		var start int
		buf, start = BeginFrame(buf, TRenewBatch, uint64(i))
		buf = AppendRenewBatchReq(buf, 30_000, items)
		buf = EndFrame(buf, start)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		var start int
		buf, start = BeginFrame(buf, TRenewBatch, 1)
		buf = AppendRenewBatchReq(buf, 30_000, items)
		buf = EndFrame(buf, start)
	}); allocs != 0 {
		b.Fatalf("encode renew batch allocates %v times per frame", allocs)
	}
}

// BenchmarkDecodeRenewBatch measures the hot server-side path: payload
// bytes into a reused lease.RenewItem slice. Must not allocate.
func BenchmarkDecodeRenewBatch(b *testing.B) {
	items := make([]wire.Item, 64)
	for i := range items {
		items[i] = wire.Item{Name: i, Token: uint64(i) * 7}
	}
	p := AppendRenewBatchReq(nil, 30_000, items)
	scratch := make([]lease.RenewItem, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		_, scratch, err = DecodeRenewBatchReq(p, scratch)
		if err != nil {
			b.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_, scratch, _ = DecodeRenewBatchReq(p, scratch)
	}); allocs != 0 {
		b.Fatalf("decode renew batch allocates %v times per frame", allocs)
	}
}

// TestChecksumRejectsCorruption: any payload bit flip fails the CRC
// gate before type-specific decoding ever sees the bytes.
func TestChecksumRejectsCorruption(t *testing.T) {
	buf, start := BeginFrame(nil, TRenewBatch, 42)
	buf = AppendRenewBatchReq(buf, 30_000, []wire.Item{{Name: 7, Token: 0xABC}})
	buf = EndFrame(buf, start)
	h, err := ParseHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	payload := buf[HeaderLen:]
	if err := VerifyPayload(h, payload); err != nil {
		t.Fatalf("clean payload = %v", err)
	}
	for i := range payload {
		payload[i] ^= 0x40
		if err := DecodePayload(h, payload); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at byte %d: DecodePayload = %v, want ErrChecksum", i, err)
		}
		payload[i] ^= 0x40
	}
	if err := DecodePayload(h, payload); err != nil {
		t.Fatalf("restored payload = %v", err)
	}
}
