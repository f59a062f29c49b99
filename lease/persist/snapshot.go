// snapshot.go is the compaction half of the durability layer: a snapshot
// file is the whole lease table (plus the fencing-token watermark), after
// which the journal restarts empty — recovery cost becomes O(live +
// records-since-snapshot) instead of O(every record ever).
//
// Format 2: an 8-byte magic, one acquire-shaped frame per lease, then an
// end frame {0xFF, token watermark, lease count}, all in the journal's
// CRC-32C framing. The snapshot is streamed out of a live table, so it
// cannot announce its count up front; instead the end frame must be the
// last bytes of the file and its count must equal the frames before it.
// The file is replaced atomically — written to a temp name, fsynced,
// renamed over the old snapshot, directory fsynced — so a crash mid-
// compaction leaves the previous snapshot intact. Unlike the journal, a
// snapshot that fails validation (a bad frame, a duplicate name, a
// non-acquire frame, a missing or mismatched end frame) is a hard error,
// not a truncation: the rename either happened or it didn't, so a
// half-valid snapshot means real corruption and silently dropping its
// tail would resurrect stale leases.
package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/lease"
)

const snapshotMagic = "RLRNSNP2"

// opSnapshotEnd tags the end frame; no record carries it.
const opSnapshotEnd op = 0xFF

// writerSize buffers the journal and snapshot writers: at 10–30 bytes a
// record, a 4 KiB buffer is a write syscall every couple of hundred.
const writerSize = 64 << 10

// writeSnapshot atomically replaces dir's snapshot with what t.Walk
// yields. seal runs after the walk and before the end frame is written:
// it returns the token watermark the snapshot records, and is where a
// runtime compaction makes the journal durable up to everything the walk
// can have seen (see Store.Compact).
func writeSnapshot(dir string, t lease.Table, seal func() uint64) error {
	tmp := filepath.Join(dir, snapshotName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	w := bufio.NewWriterSize(f, writerSize)
	_, werr := w.WriteString(snapshotMagic)
	var frame []byte
	var count uint64
	if werr == nil {
		werr = t.Walk(func(chunk []lease.Lease) error {
			for _, l := range chunk {
				frame = appendRecord(frame[:0], recordFromLease(l))
				if _, err := w.Write(frame); err != nil {
					return err
				}
			}
			count += uint64(len(chunk))
			return nil
		})
	}
	if werr == nil {
		frame = append(beginFrame(frame[:0]), byte(opSnapshotEnd))
		frame = binary.AppendUvarint(frame, seal())
		frame = binary.AppendUvarint(frame, count)
		_, werr = w.Write(endFrame(frame, 0))
	}
	if werr == nil {
		werr = w.Flush()
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: snapshot: %w", werr)
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapshotName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	return syncDir(dir)
}

// loadSnapshot reads dir's snapshot into a fresh, settled fold. A missing
// file is an empty state; a present-but-invalid file is an error. Nothing
// read from the file sizes an allocation: the log is sized by the
// checksummed frames the file holds.
func loadSnapshot(dir string) (*fold, error) {
	st := &fold{}
	path := filepath.Join(dir, snapshotName)
	buf, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: snapshot: %w", err)
	}
	if err := checkMagic(path, buf, snapshotMagic); err != nil {
		return nil, err
	}
	rest := buf[len(snapshotMagic):]
	st.grow(rest)
	var owner string
	for {
		payload, after, ok := nextFrame(rest)
		if !ok {
			return nil, fmt.Errorf("persist: snapshot: no valid frame at byte %d of %d (after %d leases, no end frame yet)",
				len(buf)-len(rest), len(buf), len(st.log))
		}
		rest = after
		if len(payload) > 0 && op(payload[0]) == opSnapshotEnd {
			c := &cursor{b: payload, off: 1}
			st.maxToken = c.uvarint("token watermark")
			count := c.uvarint("lease count")
			switch {
			case c.err != nil:
				return nil, fmt.Errorf("persist: snapshot end frame: %w", c.err)
			case c.off != len(payload) || len(rest) != 0:
				return nil, errors.New("persist: snapshot: bytes after the end frame")
			case count != uint64(len(st.log)):
				return nil, fmt.Errorf("persist: snapshot: end frame counts %d leases, file holds %d", count, len(st.log))
			}
			if name, twice := st.settle(); twice {
				return nil, fmt.Errorf("persist: snapshot: name %d twice", name)
			}
			return st, nil
		}
		rec, err := decodePayload(payload, owner)
		if err != nil {
			return nil, fmt.Errorf("persist: snapshot lease %d: %w", len(st.log), err)
		}
		if rec.op != opAcquire {
			return nil, fmt.Errorf("persist: snapshot lease %d: op %d", len(st.log), rec.op)
		}
		// The end frame carries the snapshot's watermark; its leases
		// do not move it, so they join the log without apply.
		owner = rec.owner
		st.log = append(st.log, rec)
	}
}

// leaseFromRecord rebuilds the in-memory lease an opAcquire record (or a
// snapshot lease frame) describes.
func leaseFromRecord(r record) lease.Lease {
	return lease.Lease{
		Name:      r.name,
		Token:     r.token,
		Owner:     r.owner,
		ExpiresAt: time.Unix(0, r.expiresAt),
		Meta:      r.meta,
	}
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable — the half of atomic replacement that os.Rename alone skips.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: sync dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("persist: sync dir: %w", err)
	}
	return nil
}
