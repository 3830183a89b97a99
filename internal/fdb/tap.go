package fdb

import "bytes"

// MetadataVersionKey is the system key FoundationDB keeps the metadata
// version under. The simulator keeps the version outside its key space, so no
// read returns it; a Tap sees MetadataVersion as a read of this key and
// BumpMetadataVersion as a write of it.
var MetadataVersionKey = []byte("\xff/metadataVersion")

// AccessKind says what a transaction did with the keys of an Access.
type AccessKind uint8

const (
	// AccessRead is a point or range read, snapshot or serializable.
	AccessRead AccessKind = iota
	// AccessWrite is a set or atomic op of one key. A versionstamped key is
	// given as Atomic took it: placeholder bytes and offset suffix.
	AccessWrite
	// AccessClear is a clear of a range, or of one key.
	AccessClear
	// AccessReadConflict and AccessWriteConflict are conflict ranges added
	// by hand.
	AccessReadConflict
	AccessWriteConflict
	// AccessCommit is a Commit's verdict; it names no key.
	AccessCommit
)

var accessKindNames = [...]string{"read", "write", "clear", "read conflict", "write conflict", "commit"}

func (k AccessKind) String() string { return accessKindNames[k] }

// Access is one thing a transaction did, as a Tap sees it when it is issued.
type Access struct {
	Kind AccessKind
	// Begin and End bound the range [Begin, End) the access names; End is
	// nil when it names the one key Begin. They are the tap's own copies, so
	// a key the caller passes stays the caller's: Set, Clear and Atomic copy
	// what they buffer, and a key built in a caller's stack buffer stays there.
	Begin, End []byte
	// Snapshot marks a read that records no read conflict.
	Snapshot bool
	// Err is a commit's verdict: nil when it committed.
	Err error
}

// Tap sees every key access of every transaction of a database, and the
// verdict of each Commit. It may run under the transaction's lock, so it must
// not call the transaction.
type Tap func(tr *Transaction, a Access)

// SetTap installs tap on d; nil removes it. Call it while no transaction of d
// runs, since transactions read the tap without a lock. With no tap an access
// costs one nil check.
func (d *Database) SetTap(tap Tap) { d.tap = tap }

// note shows the database's tap, if it has one, an access of kind k.
func (t *Transaction) note(k AccessKind, begin, end []byte, snapshot bool) {
	if t.db.tap != nil {
		t.db.tap(t, Access{Kind: k, Begin: bytes.Clone(begin), End: bytes.Clone(end), Snapshot: snapshot})
	}
}
