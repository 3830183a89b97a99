package cloudkit

import (
	"fmt"

	"recordlayer/internal/core"
	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// SyncChange is one entry of a zone's change feed.
type SyncChange struct {
	Zone        string
	RecordType  string
	RecordName  string
	Incarnation int64
	// Version is the change's position in the total order: the commit
	// version for new-method records, the update counter for legacy ones.
	Version tuple.Tuple
}

// SyncResult is one page of a sync operation.
type SyncResult struct {
	Changes      []SyncChange
	Continuation []byte
	// More reports whether the scan stopped at a limit rather than the end
	// of the change feed.
	More bool
}

// SyncZone brings a device up to date with a zone (§8.1): scan the VERSION
// sync index from the supplied continuation. The total order over
// (incarnation, version) pairs survives cross-cluster moves; legacy
// update-counter entries sort first via the (0, counter) mapping.
//
// The continuation is a position in that order, not a key: the last
// delivered entry's (zone, incarnation, version, primary key), packed. It
// names no store prefix, so a device's continuation resumes on the store's
// new cluster after MoveUser, wherever the store landed there. One of another
// zone, or one that does not unpack, fails as cursor.ErrCorruptContinuation.
// So does a continuation of the earlier format, the index scan's raw key: a
// device holding one syncs its zone again from the start.
func (s *Service) SyncZone(store *core.Store, zone string, continuation []byte, limit int) (*SyncResult, error) {
	r := index.TupleRange{
		Low: tuple.Tuple{zone}, LowInclusive: true,
		High: tuple.Tuple{zone}, HighInclusive: true,
	}
	if len(continuation) > 0 {
		last, err := tuple.Unpack(continuation)
		if err != nil || len(last) == 0 || last[0] != zone {
			return nil, cursor.ErrCorruptContinuation
		}
		r.Low, r.LowInclusive = last, false
	}
	c, err := store.ScanIndex(SyncIndexName, r, index.ScanOptions{})
	if err != nil {
		return nil, err
	}
	limited := cursor.Limit(c, limit)
	// The continuation tracks the last change delivered, so a caught-up
	// device can keep it and later resume from the same point — observing
	// all newly written data (§7's total-ordering property).
	res := &SyncResult{Continuation: continuation}
	var entries []index.Entry
	for {
		r, err := limited.Next()
		if err != nil {
			return nil, err
		}
		if !r.OK {
			res.More = r.Reason != cursor.SourceExhausted
			break
		}
		entries = append(entries, r.Value)
	}
	if n := len(entries); n > 0 {
		res.Continuation = entries[n-1].Key().Append(entries[n-1].PrimaryKey()...).Pack()
	}
	for _, e := range entries {
		// Entry key: (zone, incarnation|0, version|counter); primary key:
		// (zone, recordTypeKey, recordName).
		key, pk := e.Key(), e.PrimaryKey()
		if len(key) != 3 || len(pk) != 3 {
			return nil, fmt.Errorf("cloudkit: malformed sync entry %v / %v", key, pk)
		}
		rt, ok := store.MetaData().RecordTypeForKey(pk[1])
		if !ok {
			return nil, fmt.Errorf("cloudkit: sync entry with unknown record type key %v", pk[1])
		}
		res.Changes = append(res.Changes, SyncChange{
			Zone:        key[0].(string),
			RecordType:  rt.Name,
			RecordName:  pk[2].(string),
			Incarnation: key[1].(int64),
			Version:     key[1:3],
		})
	}
	return res, nil
}

// QuotaUsage returns the total stored record bytes per record type, from the
// system SUM index CloudKit uses for quota management (§8).
func (s *Service) QuotaUsage(store *core.Store, typeName string) (int64, error) {
	rt, ok := store.MetaData().RecordType(typeName)
	if !ok {
		return 0, fmt.Errorf("cloudkit: container has no record type %q", typeName)
	}
	return store.AggregateInt64(QuotaIndexName, tuple.Tuple{rt.TypeKey()})
}

// ZoneRecordCount returns the number of records in a zone.
func (s *Service) ZoneRecordCount(store *core.Store, zone string) (int64, error) {
	return store.AggregateInt64(CountIndexName, tuple.Tuple{zone})
}

// MoveUser relocates a user's record store to another cluster (§8.1): copy
// the store's contiguous key range — everything needed to interpret and
// operate the store lives inside it (§3) — then increment the user's
// incarnation on the destination so post-move commit versions, which are
// uncorrelated with the source cluster's, still sort after pre-move changes.
//
// Each cluster's directory layer allocates interned ids on its own, so the
// store's prefix is resolved on each: on the source to read the store, on the
// destination by interning the path's names there. Directory keys are never
// copied: the source's would overwrite the destination's name map and
// allocator, and the moved name could arrive mapped to an id a neighbour's
// store already uses. The copy rewrites the prefix, and it fails without
// writing if the destination range already holds data.
func (s *Service) MoveUser(src, dst *fdb.Database, ct *Container, userID int64) error {
	var from subspace.Subspace
	_, err := src.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		var err error
		from, err = s.StoreSubspace(tr, ct, userID)
		return nil, err
	})
	if err != nil {
		return err
	}
	begin, end := from.Range()
	kvs, err := readAll(src, begin, end)
	if err != nil {
		return err
	}
	_, err = dst.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		to, err := s.StoreSubspace(tr, ct, userID)
		if err != nil {
			return nil, err
		}
		b, e := to.Range()
		held, _, err := tr.GetRange(b, e, fdb.RangeOptions{Limit: 1})
		if err != nil {
			return nil, err
		}
		if len(held) > 0 {
			return nil, fmt.Errorf("cloudkit: moving user %d of %s: the destination already holds data at %x", userID, ct.Name, to.Bytes())
		}
		for _, kv := range kvs {
			key := append(append([]byte(nil), to.Bytes()...), kv.Key[len(from.Bytes()):]...)
			if err := tr.Set(key, kv.Value); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		return err
	}
	// Increment the incarnation on the destination (§8.1).
	_, err = dst.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		store, err := s.UserStore(tr, ct, userID)
		if err != nil {
			return nil, err
		}
		return nil, store.SetUserVersion(store.Header().UserVersion + 1)
	})
	if err != nil {
		return err
	}
	// Clear the source range: the tenant has moved.
	_, err = src.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		return nil, tr.ClearRange(begin, end)
	})
	return err
}

func readAll(db *fdb.Database, begin, end []byte) ([]fdb.KeyValue, error) {
	v, err := db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		kvs, _, err := tr.Snapshot().GetRange(begin, end, fdb.RangeOptions{})
		return kvs, err
	})
	if err != nil {
		return nil, err
	}
	return v.([]fdb.KeyValue), nil
}

// Incarnation returns the user's current incarnation.
func Incarnation(store *core.Store) int64 { return int64(store.Header().UserVersion) }
