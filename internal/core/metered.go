package core

import "recordlayer/internal/fdb"

// This file is the package's only home for raw transaction reads: every
// fdb.Get/GetRange in internal/core must flow through one of these helpers
// (or the issueLoadRecord/awaitLoadRecord pair in records.go, or loadState in
// statecache.go) so the tenant's Meter sees every key and byte the store
// pulls. The meteredtxn analyzer enforces that; the lint:allow directives
// below are the audited exceptions it points at.

// meteredGet reads one key and accounts the fetched pair to the tenant meter.
func (s *Store) meteredGet(key []byte) ([]byte, error) {
	raw, err := s.tr.Get(key) //lint:allow meteredtxn audited helper: the package's raw point read, metered below
	if err != nil || raw == nil {
		return raw, err
	}
	s.meter.RecordRead(1, len(key)+len(raw))
	return raw, nil
}

// meteredGetRange reads a key range and accounts the fetched pairs.
func (s *Store) meteredGetRange(begin, end []byte, o fdb.RangeOptions) ([]fdb.KeyValue, bool, error) {
	kvs, more, err := s.tr.GetRange(begin, end, o) //lint:allow meteredtxn audited helper: the package's raw range read, metered below
	if err != nil {
		return nil, false, err
	}
	s.meterReadKVs(kvs)
	return kvs, more, nil
}

// meteredSnapshotRange is meteredGetRange at snapshot isolation (no read
// conflict registered).
func (s *Store) meteredSnapshotRange(begin, end []byte, o fdb.RangeOptions) ([]fdb.KeyValue, bool, error) {
	kvs, more, err := s.tr.Snapshot().GetRange(begin, end, o) //lint:allow meteredtxn audited helper: the package's raw snapshot range read, metered below
	if err != nil {
		return nil, false, err
	}
	s.meterReadKVs(kvs)
	return kvs, more, nil
}
