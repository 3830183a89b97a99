package recordlayer

import "recordlayer/internal/core"

// Scrubber verifies an index against its records in both directions — what
// the index holds must be what its records make it hold, and nothing more —
// by rebuilding: each batch runs the index's own maintainer over records
// into a scratch database and compares the result with the live index by the
// rules of its type; COUNT_UPDATES, MAX_EVER and MIN_EVER, which keep what
// past writes did, against a bound. Scans run in bounded, continuation-resumed
// batches of snapshot reads, so large stores scrub without aborting
// foreground writers; with Repair set inconsistencies are fixed in place.
// See internal/core.Scrubber for field documentation and `rl scrub` for a
// guided demonstration.
type Scrubber = core.Scrubber

// ScrubReport summarizes one Scrub pass.
type ScrubReport = core.ScrubReport

// ScrubIssue is one inconsistency found by the scrubber.
type ScrubIssue = core.ScrubIssue

// Scrub issue kinds.
const (
	ScrubDangling = core.ScrubDangling
	ScrubMissing  = core.ScrubMissing
	ScrubMismatch = core.ScrubMismatch
)
