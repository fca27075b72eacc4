package storage

import (
	"encoding/binary"
	"fmt"
)

// Binary WAL record codec. The frame layout (length + CRC) is shared
// with the legacy JSON format; only the payload changes. A binary
// payload opens with a version byte that can never begin a JSON
// object ('{' is 0x7b), so replay distinguishes the two formats per
// record: logs written by older builds replay transparently, and a log
// that starts life as JSON simply continues in binary after the first
// append by a current build.
//
// Layout (all integers are unsigned varints, strings are a varint
// length followed by the raw bytes):
//
//	byte    version  (binVersion)
//	byte    kind     (binInsert .. binCommit)
//	uvarint lsn
//	uvarint tx
//	string  rel
//	uvarint id
//	uvarint 0        (reserved: was a replacement id)
//	string  seq
//	string  vec      (canonical vector literal, "" = none)
//	uvarint len(attrs), then len pairs of (string key, string value)
//	uvarint n        (commit: operation count)
//	uvarint 0        (reserved: was a global transaction id)
//	uvarint 0        (reserved: was a segment count)
//
// The reserved fields keep the layout every earlier build wrote, so
// their logs replay unchanged; the decoder reads and drops them.
// Every field is present for every kind — empty fields cost one byte —
// which keeps the codec a single straight-line encoder/decoder instead
// of a per-kind switch, and means new fields extend every record
// uniformly. Compared to the JSON marshal this removes all field-name
// bytes, quoting, and reflection from the hot commit path.
const binVersion = 0x01

// Binary kind bytes, mapped 1:1 onto the record-kind strings. Bytes 3,
// 4 and 6 are reserved and never reused: the segmented store of sharded
// builds wrote them (explicit-id insert and update, global commit).
const (
	binInsert = 0
	binDelete = 1
	binUpdate = 2
	binCommit = 5
)

var kindToByte = map[string]byte{
	recInsert: binInsert,
	recDelete: binDelete,
	recUpdate: binUpdate,
	recCommit: binCommit,
}

var byteToKind = [...]string{
	binInsert: recInsert,
	binDelete: recDelete,
	binUpdate: recUpdate,
	binCommit: recCommit,
}

// binSegmented marks the reserved kind bytes.
var binSegmented = [...]bool{3: true, 4: true, 6: true}

// appendString appends a varint-length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// encodeRecord appends the binary encoding of rec to dst and returns
// the extended slice. Callers reuse dst across records, so the encoder
// allocates nothing once the scratch buffer has grown to a typical
// record size.
func encodeRecord(dst []byte, rec *walRecord) ([]byte, error) {
	kind, ok := kindToByte[rec.Kind]
	if !ok {
		return nil, fmt.Errorf("storage: unknown record kind %q", rec.Kind)
	}
	dst = append(dst, binVersion, kind)
	dst = binary.AppendUvarint(dst, rec.LSN)
	dst = binary.AppendUvarint(dst, rec.Tx)
	dst = appendString(dst, rec.Rel)
	dst = binary.AppendUvarint(dst, uint64(rec.ID))
	dst = append(dst, 0)
	dst = appendString(dst, rec.Seq)
	dst = appendString(dst, rec.Vec)
	dst = binary.AppendUvarint(dst, uint64(len(rec.Attrs)))
	if len(rec.Attrs) > 0 {
		// Attribute order does not matter for replay (the map is
		// rebuilt), so the natural map order is fine on the hot path.
		for k, v := range rec.Attrs {
			dst = appendString(dst, k)
			dst = appendString(dst, v)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(rec.N))
	dst = append(dst, 0, 0)
	return dst, nil
}

// binReader walks a binary payload; any overrun sets err and makes
// every later read a no-op, so the decoder checks once at the end.
type binReader struct {
	buf []byte
	err error
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = fmt.Errorf("storage: truncated varint in binary record")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *binReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.buf)) < n {
		r.err = fmt.Errorf("storage: truncated string in binary record")
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

// decodeBinaryRecord parses one binary payload (version byte already
// verified by the caller). A payload that does not parse exactly —
// short fields or trailing garbage — is an error, which replay treats
// like a CRC failure: the log ends at the previous frame.
func decodeBinaryRecord(payload []byte, rec *walRecord) error {
	if len(payload) < 2 || payload[0] != binVersion {
		return fmt.Errorf("storage: bad binary record header")
	}
	kindByte := payload[1]
	if int(kindByte) < len(binSegmented) && binSegmented[kindByte] {
		return errSegmentedRecord
	}
	if int(kindByte) >= len(byteToKind) || byteToKind[kindByte] == "" {
		return fmt.Errorf("storage: unknown binary record kind %d", kindByte)
	}
	r := &binReader{buf: payload[2:]}
	rec.Kind = byteToKind[kindByte]
	rec.LSN = r.uvarint()
	rec.Tx = r.uvarint()
	rec.Rel = r.str()
	rec.ID = int(r.uvarint())
	r.uvarint() // reserved
	rec.Seq = r.str()
	rec.Vec = r.str()
	nattrs := r.uvarint()
	if r.err == nil && nattrs > 0 {
		if nattrs > uint64(len(r.buf)) { // each pair needs >= 2 bytes
			return fmt.Errorf("storage: absurd attribute count in binary record")
		}
		attrs := make(map[string]string, nattrs)
		for i := uint64(0); i < nattrs && r.err == nil; i++ {
			k := r.str()
			attrs[k] = r.str()
		}
		rec.Attrs = attrs
	}
	rec.N = int(r.uvarint())
	r.uvarint() // reserved
	r.uvarint() // reserved
	if r.err != nil {
		return r.err
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("storage: %d trailing bytes after binary record", len(r.buf))
	}
	return nil
}

// decodeRecord dispatches on the payload's first byte: '{' is the
// legacy JSON encoding, binVersion the binary one.
func decodeRecord(payload []byte, rec *walRecord) error {
	if len(payload) > 0 && payload[0] == '{' {
		return decodeJSONRecord(payload, rec)
	}
	return decodeBinaryRecord(payload, rec)
}
