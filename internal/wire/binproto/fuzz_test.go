package binproto

import (
	"bytes"
	"testing"

	"repro/internal/wire"
)

// FuzzDecodeFrame throws arbitrary bytes at the full frame pipeline —
// header parse, then the type-appropriate payload decoder. The
// invariants mirror lease/persist's torn-tail property test: hostile
// input yields a typed error, never a panic, and never an allocation
// the input's own length doesn't justify (the count-before-alloc
// checks in the codec are what the hostile-count seeds probe).
func FuzzDecodeFrame(f *testing.F) {
	// Well-formed seeds, one per frame type.
	seed := func(t Type, payload []byte) {
		buf, start := BeginFrame(nil, t, 0x1122334455667788)
		buf = append(buf, payload...)
		f.Add(EndFrame(buf, start))
	}
	// The retired frames (0x01 acquire, 0x03 renew, 0x05 release, the
	// single-lease response, 0x07 stats, 0x08 resize and their responses)
	// stay in the corpus in their old layouts: once well-formed, now
	// inputs ParseHeader must reject by type.
	seed(0x01, appendMeta(appendStr(appendI64(nil, 30_000), "owner"), map[string]string{"k": "v"}))
	seed(TAcquireBatch, AppendAcquireBatchReq(nil, "o", 16, 30_000, nil))
	seed(0x03, appendI64(appendU64(appendI64(nil, 3), 0xABC), 30_000))
	seed(TRenewBatch, AppendRenewBatchReq(nil, 30_000, []wire.Item{{Name: 1, Token: 2}, {Name: 3, Token: 4}}))
	seed(0x05, appendU64(appendI64(nil, 3), 0xABC))
	seed(TReleaseBatch, AppendReleaseBatchReq(nil, []wire.Item{{Name: 1, Token: 2}}))
	seed(0x07, nil)
	seed(0x01|RespBit, AppendLease(nil, 1, 2, 3))
	seed(TAcquireBatch|RespBit, AppendLease(AppendLeasesRespHeader(nil, 1), 1, 2, 3))
	seed(TRenewBatch|RespBit, AppendRenewResult(AppendBatchRespHeader(nil, 1), CodeOK, 1, 2, 3))
	seed(TReleaseBatch|RespBit, append(AppendBatchRespHeader(nil, 1), CodeOK))
	seed(0x07|RespBit, make([]byte, 80)) // ten i64 counters
	seed(0x08, appendI64(nil, 4096))
	// capacity | maxLive | epoch | draining | count | (code, component, msg)
	resizeResp := append(appendU64(appendI64(appendI64(nil, 4096), 4096), 2), 1, 1, CodeOK)
	seed(0x08|RespBit, appendStr(appendStr(resizeResp, "namer"), ""))
	seed(TError, AppendErrorResp(nil, CodeExhausted, "full"))

	// Hostile seeds: torn frames, oversized declared lengths, truncated
	// headers, counts the bytes don't pay for, garbage.
	f.Add([]byte{})
	f.Add([]byte{'R'})
	f.Add([]byte{'R', 'B', Version})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	{ // declared length far past the actual bytes
		buf, start := BeginFrame(nil, TRenewBatch, 1)
		buf = EndFrame(buf, start)
		buf[12], buf[13], buf[14], buf[15] = 0x00, 0x0F, 0xFF, 0xFF
		f.Add(buf)
	}
	{ // batch count of 2^31 with a 12-byte payload
		buf, start := BeginFrame(nil, TRenewBatch, 1)
		buf = appendI64(buf, 30_000)
		buf = appendU32(buf, 1<<31)
		buf = EndFrame(buf, start)
		f.Add(buf)
	}
	{ // meta count larger than remaining bytes
		buf, start := BeginFrame(nil, TAcquireBatch, 1)
		buf = appendI64(buf, 30_000)
		buf = appendU32(buf, 1)
		buf = appendStr(buf, "o")
		buf = appendU16(buf, 0xFFFF)
		buf = EndFrame(buf, start)
		f.Add(buf)
	}
	{ // retired resize response with a verdict count the bytes don't pay for
		buf, start := BeginFrame(nil, 0x08|RespBit, 1)
		buf = appendI64(buf, 64)
		buf = appendI64(buf, 64)
		buf = appendU64(buf, 1)
		buf = append(buf, 0, 0xFF)
		buf = EndFrame(buf, start)
		f.Add(buf)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ParseHeader(data)
		if err != nil {
			return // typed rejection is the contract; not panicking is the test
		}
		payload := data[HeaderLen:]
		if int(h.Len) > len(payload) {
			return // torn frame: a stream reader would wait for more bytes
		}
		payload = payload[:h.Len]
		if err := DecodePayload(h, payload); err == nil {
			// A frame that decodes cleanly must re-encode headers that
			// parse: sanity that accepted input is structurally valid.
			var hdr [HeaderLen]byte
			PutHeader(hdr[:], h.Type, h.ID, h.Len, h.CRC)
			if _, err := ParseHeader(hdr[:]); err != nil {
				t.Fatalf("accepted frame re-encodes to invalid header: %v", err)
			}
		}
	})
}
