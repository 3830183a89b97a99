package resource

import (
	"fmt"

	"recordlayer/internal/fdb"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// limitsFormatVersion guards the tuple layout of a persisted Limits row so a
// future layout change can coexist with old rows during a rolling upgrade.
const limitsFormatVersion = 1

// LimitsStore persists per-tenant Limits in the database under a reserved
// subspace, one tuple-encoded row per tenant, so that every stateless server
// sharing the cluster enforces the same quotas (§1, §5: the configuration
// must live with the data, not in any one process). Writers call Set/Delete;
// every Governor loads the table with LoadLimits (a lease.Manager's Run
// reloads it on every heartbeat).
//
// All methods run their own bounded transaction on the store's database and
// are safe for concurrent use.
type LimitsStore struct {
	db    *fdb.Database
	space subspace.Subspace
}

// NewLimitsStore opens a limits store over the given subspace. Callers pick
// the subspace once, cluster-wide — the façade reserves a system keyspace
// directory for it.
func NewLimitsStore(db *fdb.Database, space subspace.Subspace) *LimitsStore {
	return &LimitsStore{db: db, space: space}
}

// encodeLimits packs l as the persisted tuple row.
func encodeLimits(l Limits) []byte {
	return tuple.Tuple{
		int64(limitsFormatVersion),
		l.TxnPerSecond,
		int64(l.Burst),
		l.BytesPerSecond,
		l.ByteBurst,
		int64(l.MaxConcurrent),
		int64(l.Weight),
	}.Pack()
}

// decodeLimits unpacks a persisted row back into Limits.
func decodeLimits(b []byte) (Limits, error) {
	t, err := tuple.Unpack(b)
	if err != nil {
		return Limits{}, fmt.Errorf("resource: corrupt limits row: %w", err)
	}
	if len(t) != 7 {
		return Limits{}, fmt.Errorf("resource: limits row has %d elements, want 7", len(t))
	}
	version, ok := t[0].(int64)
	if !ok || version != limitsFormatVersion {
		return Limits{}, fmt.Errorf("resource: unsupported limits format version %v", t[0])
	}
	asFloat := func(v interface{}) (float64, bool) {
		switch x := v.(type) {
		case float64:
			return x, true
		case int64:
			return float64(x), true
		}
		return 0, false
	}
	asInt := func(v interface{}) (int64, bool) {
		x, ok := v.(int64)
		return x, ok
	}
	var l Limits
	var ok1, ok2, ok3, ok4, ok5, ok6 bool
	var burst, maxConc, weight int64
	l.TxnPerSecond, ok1 = asFloat(t[1])
	burst, ok2 = asInt(t[2])
	l.BytesPerSecond, ok3 = asFloat(t[3])
	l.ByteBurst, ok4 = asInt(t[4])
	maxConc, ok5 = asInt(t[5])
	weight, ok6 = asInt(t[6])
	if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 || !ok6 {
		return Limits{}, fmt.Errorf("resource: limits row has mistyped elements: %v", t)
	}
	l.Burst = int(burst)
	l.MaxConcurrent = int(maxConc)
	l.Weight = int(weight)
	return l, nil
}

// key returns the row key for a tenant's limits.
func (s *LimitsStore) key(tenant string) []byte {
	return s.space.Pack(tuple.Tuple{tenant})
}

// Set persists tenant's limits, replacing any previous row.
func (s *LimitsStore) Set(tenant string, l Limits) error {
	_, err := s.db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		return nil, tr.Set(s.key(tenant), encodeLimits(l))
	})
	return err
}

// Get reads tenant's persisted limits; ok is false when no row exists (the
// tenant runs under the governor's DefaultLimits).
func (s *LimitsStore) Get(tenant string) (l Limits, ok bool, err error) {
	v, err := s.db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		b, err := tr.Get(s.key(tenant))
		if err != nil || b == nil {
			return nil, err
		}
		lim, err := decodeLimits(b)
		if err != nil {
			return nil, err
		}
		return lim, nil
	})
	if err != nil || v == nil {
		return Limits{}, false, err
	}
	return v.(Limits), true, nil
}

// Delete removes tenant's persisted limits; the tenant reverts to default
// limits at every server's next refresh.
func (s *LimitsStore) Delete(tenant string) error {
	_, err := s.db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		return nil, tr.Clear(s.key(tenant))
	})
	return err
}

// All reads every persisted tenant's limits in one snapshot read — the
// payload a Governor.LoadLimits refresh applies.
func (s *LimitsStore) All() (map[string]Limits, error) {
	v, err := s.db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		out := make(map[string]Limits)
		begin, end := s.space.Range()
		for {
			kvs, more, err := tr.Snapshot().GetRange(begin, end, fdb.RangeOptions{Limit: 256})
			if err != nil {
				return nil, err
			}
			for _, kv := range kvs {
				t, err := s.space.Unpack(kv.Key)
				if err != nil {
					return nil, fmt.Errorf("resource: foreign key in limits subspace: %w", err)
				}
				if len(t) != 1 {
					continue // not a limits row; tolerate future siblings
				}
				tenant, ok := t[0].(string)
				if !ok {
					continue
				}
				l, err := decodeLimits(kv.Value)
				if err != nil {
					return nil, err
				}
				out[tenant] = l
			}
			if !more || len(kvs) == 0 {
				break
			}
			begin = fdb.KeyAfter(kvs[len(kvs)-1].Key)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(map[string]Limits), nil
}
