package recordlayer

import (
	"encoding/binary"
	"fmt"

	"recordlayer/internal/cursor"
)

// Skip paging across transactions: ExecuteProperties.Skip must discard its
// records exactly once over the whole query, not once per page. A skipCursor
// therefore tracks how many records are still to be discarded and prefixes
// every continuation it hands out with that count, so a resumed execution
// (same props, WithContinuation) picks up mid-skip instead of re-applying
// the full Skip to the resumed stream.
//
// The envelope only exists in the Skip > 0 world — continuations of
// skip-free queries are the raw plan bytes, unchanged.

// skipContMarker distinguishes a skip-enveloped continuation from a raw plan
// continuation produced before the query's skip support existed.
const skipContMarker = 0x73 // 's'

// encodeSkipContinuation prefixes inner with the outstanding skip count.
// A nil inner with nothing left to skip stays nil (the exhausted contract).
func encodeSkipContinuation(remaining int, inner []byte) []byte {
	if remaining == 0 && inner == nil {
		return nil
	}
	buf := make([]byte, 0, 1+binary.MaxVarintLen64+len(inner))
	buf = append(buf, skipContMarker)
	buf = binary.AppendUvarint(buf, uint64(remaining))
	return append(buf, inner...)
}

// decodeSkipContinuation splits a skip-enveloped continuation back into the
// outstanding skip count and the inner plan continuation. A continuation
// without the envelope (from an execution that predates skip encoding)
// resumes with nothing left to skip. A count outside [0, skip] — the query's
// own Skip — cannot have come from this query and is rejected as corrupt:
// accepting it would silently change which rows come back.
func decodeSkipContinuation(cont []byte, skip int) (remaining int, inner []byte, err error) {
	if len(cont) == 0 || cont[0] != skipContMarker {
		return 0, cont, nil
	}
	v, n := binary.Uvarint(cont[1:])
	if n <= 0 || skip < 0 || v > uint64(skip) {
		return 0, nil, fmt.Errorf("recordlayer: corrupt skip continuation")
	}
	inner = cont[1+n:]
	if len(inner) == 0 {
		inner = nil
	}
	return int(v), inner, nil
}

// skipCursor discards its first remaining values and envelopes every
// continuation with the outstanding count.
type skipCursor struct {
	inner     cursor.Cursor[*Record]
	remaining int
}

// Demand implements cursor.Demander: n rows cost n plus those still to skip.
func (c *skipCursor) Demand(n int) { cursor.Demand(c.inner, n+c.remaining) }

func (c *skipCursor) Next() (cursor.Result[*Record], error) {
	for c.remaining > 0 {
		r, err := c.inner.Next()
		if err != nil {
			return cursor.Result[*Record]{}, err
		}
		if !r.OK {
			// Halted mid-skip (scan/byte/time limit): the continuation
			// remembers how much skipping is still owed.
			return c.envelope(r), nil
		}
		c.remaining--
	}
	r, err := c.inner.Next()
	if err != nil {
		return cursor.Result[*Record]{}, err
	}
	return c.envelope(r), nil
}

func (c *skipCursor) envelope(r cursor.Result[*Record]) cursor.Result[*Record] {
	if !r.OK && r.Continuation == nil {
		// Exhausted streams keep their nil continuation, and a halt whose
		// inner continuation is nil made no resumable progress — wrapping
		// it would hand the caller a non-nil continuation that restarts
		// from scratch forever.
		return r
	}
	r.Continuation = encodeSkipContinuation(c.remaining, r.Continuation)
	return r
}
