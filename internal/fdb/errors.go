package fdb

import (
	"errors"
	"fmt"
)

// Error codes mirror FoundationDB's numbering so client code (the Record
// Layer) can make the same retry decisions it would against a real cluster.
const (
	CodeNotCommitted        = 1020 // transaction conflict; retryable
	CodeCommitUnknownResult = 1021 // commit may or may not have applied; ambiguous, NOT retryable
	CodeTransactionTooOld   = 1007 // read version is before the MVCC window
	CodeFutureVersion       = 1009 // read version is ahead of the cluster; retryable
	CodeTransactionTimedOut = 1031 // exceeded the 5 second limit
	CodeTransactionCanceled = 1025
	CodeUsedDuringCommit    = 2017
	CodeTransactionTooLarge = 2101
	CodeKeyTooLarge         = 2102
	CodeValueTooLarge       = 2103
	CodeClientInvalidOp     = 2000
)

// Error is a FoundationDB-style coded error.
type Error struct {
	Code int
	Msg  string
	// Conflict names, for a not_committed the resolver found, the first
	// overlap it found. It is nil for every other error.
	Conflict *Conflict
	// Injected marks an error a FaultInjector made up: the database itself
	// had no reason to fail the call.
	Injected bool
}

// cloneRange copies r's bounds; a nil End stays nil.
func cloneRange(r KeyRange) KeyRange {
	return KeyRange{Begin: cloneBytes(r.Begin), End: cloneBytes(r.End)}
}

// Conflict is one overlap between what a transaction read and what a
// transaction that committed after its read version wrote. The bytes are the
// error's own.
type Conflict struct {
	// Read is the read conflict range the write lies in or intersects.
	Read KeyRange
	// Write is the committed write: the one key Begin when End is nil (a set
	// or atomic op), else a cleared or write-conflict range.
	Write KeyRange
}

func (e *Error) Error() string {
	return fmt.Sprintf("fdb error %d: %s", e.Code, e.Msg)
}

// Retryable reports whether the standard retry loop should re-run the
// transaction after this error. commit_unknown_result is deliberately NOT
// here: the commit may have applied, so blindly re-running a non-idempotent
// closure risks a double write. Callers that know their closure is idempotent
// opt in via RunIdempotent (on any Door: a Database or the Runner).
func (e *Error) Retryable() bool {
	switch e.Code {
	case CodeNotCommitted, CodeTransactionTooOld, CodeFutureVersion, CodeTransactionTimedOut:
		return true
	}
	return false
}

func errCode(code int, format string, args ...interface{}) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// injected is the error a FaultInjector returns in place of a real outcome.
func injected(code int, msg string) *Error {
	return &Error{Code: code, Msg: msg, Injected: true}
}

// IsRetryable reports whether err is (or wraps) a retryable FoundationDB
// error.
func IsRetryable(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.Retryable()
}

// IsConflict reports whether err is (or wraps) a transaction conflict
// (not_committed).
func IsConflict(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.Code == CodeNotCommitted
}
