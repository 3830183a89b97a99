package recordlayer

import (
	"fmt"

	"recordlayer/internal/cursor"
)

// A query's continuation is one frame (internal/cursor's package comment):
// the kind byte queryFrame, the records of ExecuteProperties.Skip still to be
// discarded, and the plan's continuation. RecordCursor.Continuation writes it
// when asked, so Skip discards its records exactly once over the whole query,
// not once per page: a resumed execution (same props, WithContinuation) picks
// up mid-skip instead of re-applying the full Skip to the resumed stream.

// queryFrame is the façade's frame kind. No earlier continuation started with
// it: not a key, a packed primary key, a JSON merge slot list or the 's' of the
// old skip envelope, so one written before this framing fails as corrupt.
const queryFrame = 'q'

// decodeContinuation splits a query continuation, none at the start, back into
// the outstanding skip count and the plan continuation. A count outside
// [0, skip] — the query's own Skip — cannot have come from this query:
// accepting it would silently change which rows come back.
func decodeContinuation(cont []byte, skip int) (remaining int, inner []byte, err error) {
	if len(cont) == 0 {
		return skip, nil, nil
	}
	r := cursor.ReadFrame(cont, queryFrame)
	n := r.Uvarint(uint64(max(skip, 0)) + 1)
	inner, ok := r.Part()
	if r.Close() != nil || !ok || len(inner) == 0 {
		return 0, nil, fmt.Errorf("recordlayer: %w", cursor.ErrCorruptContinuation)
	}
	return int(n), inner, nil
}

// skipCursor discards its first remaining values; RecordCursor.Continuation
// reads how many are left. Prefetch and Ready pass to the plan's cursor.
type skipCursor struct {
	cursor.Forward[*Record]
	remaining int
}

// Demand passes n rows on as n plus those still to skip.
func (c *skipCursor) Demand(n int) { c.Inner.Demand(n + c.remaining) }

func (c *skipCursor) Next() (cursor.Result[*Record], error) {
	for c.remaining > 0 {
		r, err := c.Inner.Next()
		if err != nil || !r.OK {
			// Halted mid-skip (scan/byte/time limit): the continuation
			// remembers how much skipping is still owed.
			return r, err
		}
		c.remaining--
	}
	return c.Inner.Next()
}
