package main

// The streamed /v1/query reply. The engine hands the handler one block
// of rows at a time (query.RowSink); replyWriter encodes each block as
// it arrives and writes the body out every flushBytes, so a wide reply
// is never held whole, neither as rows nor as encoded bytes. The body
// is byte for byte what encoding/json makes of a queryResponse, which
// FuzzReplyJSON and TestStreamedReplyMatchesMarshal pin.
//
// The first block commits the reply: it sets status 200 and encodes the
// body's head. Before that, an error or a missed deadline answers with
// the usual status and error envelope. After it, an error — the
// deadline included, which the engine checks before every block it
// hands over — closes "rows" and ends the object with the envelope's
// fields in place of row_count, stats and elapsed_ms.

import (
	"encoding/json"
	"net/http"
	"sync"
	"unicode/utf8"
)

// replyWriter streams one /v1/query reply into w. Its block method is
// the statement's RowSink; the statement runs on the handler's
// goroutine, so the handler writes what comes after the last block once
// the execution has returned, and nothing else ever touches the writer.
//
// Blocks are encoded into buf, a pooled buffer that goes to w whenever
// it holds flushBytes: writing every block costs a socket write per 256
// rows, which measured slower on words_wide than writing every 32 KB.
type replyWriter struct {
	w         http.ResponseWriter
	committed bool // the first block was encoded: status 200 is sent

	buf    []byte  // encoded, not yet written
	pooled *[]byte // buf's entry in replyBufs
	rows   int
}

// flushBytes is how much encoded reply replyWriter holds before it
// writes to the connection.
const flushBytes = 32 << 10

// replyBufs recycles reply buffers across requests; one grown past
// maxPooledReplyBuf by a block of long rows is left to the garbage
// collector.
var replyBufs = sync.Pool{New: func() any { b := make([]byte, 0, flushBytes+8<<10); return &b }}

const maxPooledReplyBuf = 4 * flushBytes

// newReplyWriter returns a writer over w with a pooled buffer, which
// release returns.
func newReplyWriter(w http.ResponseWriter) *replyWriter {
	bp := replyBufs.Get().(*[]byte)
	return &replyWriter{w: w, buf: (*bp)[:0], pooled: bp}
}

// release returns the writer's buffer to the pool once the reply is
// written.
func (rw *replyWriter) release() {
	if cap(rw.buf) <= maxPooledReplyBuf {
		*rw.pooled = rw.buf[:0]
		replyBufs.Put(rw.pooled)
	}
}

// block is the RowSink: it commits the reply on the first block and
// appends the block's rows to the body.
func (rw *replyWriter) block(columns []string, rows [][]string) error {
	first := !rw.committed
	rw.committed = true
	b := rw.buf
	if first {
		b = appendHead(b, columns)
		b = append(b, '[')
	}
	for _, r := range rows {
		if rw.rows > 0 {
			b = append(b, ',')
		}
		b = appendStrings(b, r)
		rw.rows++
	}
	rw.buf = b
	if first {
		rw.w.Header().Set("Content-Type", "application/json")
		rw.w.WriteHeader(http.StatusOK)
	}
	if len(b) < flushBytes {
		return nil
	}
	rw.buf = b[:0]
	_, err := rw.w.Write(b)
	return err
}

// finish ends a reply the execution completed: rows null when no block
// came, the analyzed plan of an EXPLAIN ANALYZE, then the tail.
func (rw *replyWriter) finish(columns []string, plan string, tail replyTail) {
	b := rw.buf
	if rw.committed {
		b = append(b, ']')
	} else {
		b = append(appendHead(b, columns), "null"...)
		rw.w.Header().Set("Content-Type", "application/json")
		rw.w.WriteHeader(http.StatusOK)
	}
	if plan != "" {
		b = append(b, `,"plan":`...)
		b = appendString(b, plan)
	}
	rw.buf = appendMembers(b, tail)
	rw.w.Write(rw.buf)
}

// fail ends a committed reply with the error envelope's fields.
func (rw *replyWriter) fail(e errorBody) {
	rw.buf = appendMembers(append(rw.buf, ']'), e)
	rw.w.Write(rw.buf)
}

// appendHead appends the reply's opening up to the rows' value.
func appendHead(b []byte, columns []string) []byte {
	b = append(b, `{"columns":`...)
	b = appendStrings(b, columns)
	return append(b, `,"rows":`...)
}

// appendMembers appends the members of v's JSON object, comma first,
// and closes the reply's object and line as json.Encoder does.
func appendMembers(b []byte, v any) []byte {
	obj, err := json.Marshal(v)
	if err != nil {
		// Unreachable: the reply structs hold strings, ints, bools and a
		// finite float.
		panic(err)
	}
	b = append(b, ',')
	return append(append(b, obj[1:]...), '\n')
}

// appendStrings appends ss as encoding/json encodes a []string.
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

const hexDigits = "0123456789abcdef"

// appendString appends s as encoding/json encodes a string: HTML
// characters and control bytes escaped, invalid UTF-8 replaced by
// \ufffd, and U+2028/U+2029 escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
