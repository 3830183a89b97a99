package cloudkit

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"recordlayer/internal/core"
	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/history"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// moveEnv is a source and a destination cluster for one user: containers
// 0–19 hold the user's notes on the destination, container 20 on the source.
type moveEnv struct {
	svc      *Service
	cts      []*Container
	src, dst *fdb.Database
}

func newMoveEnv(t *testing.T, seed int64) *moveEnv {
	t.Helper()
	svc, err := NewService(seed)
	if err != nil {
		t.Fatal(err)
	}
	env := &moveEnv{svc: svc, src: fdb.Open(nil), dst: fdb.Open(nil)}
	for i := 0; i < 21; i++ {
		schema := notesSchema()
		schema.Name = fmt.Sprintf("com.example.app%d", i)
		ct, err := svc.DefineContainer(schema)
		if err != nil {
			t.Fatal(err)
		}
		env.cts = append(env.cts, ct)
	}
	for i, ct := range env.cts {
		db, notes := env.dst, 1
		if i == 20 {
			db, notes = env.src, 3
		}
		for j := 0; j < notes; j++ {
			withUser(t, db, svc, ct, 8, func(store *core.Store, tr *fdb.Transaction) error {
				_, err := svc.SaveRecord(store, "Note", Record{Zone: fmt.Sprintf("z%d", j%2), Name: fmt.Sprintf("n%d", j),
					Fields: map[string]interface{}{"title": fmt.Sprintf("app %d note %d", i, j)}})
				return err
			})
		}
	}
	return env
}

func dumpRange(t *testing.T, db *fdb.Database, begin, end []byte) []fdb.KeyValue {
	t.Helper()
	kvs, err := readAll(db, begin, end)
	if err != nil {
		t.Fatal(err)
	}
	return kvs
}

func sameRange(a, b []fdb.KeyValue) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// prefixes resolves every container's store for user 8 on db with a cold
// service: one whose directory cache has seen nothing.
func prefixes(t *testing.T, seed int64, db *fdb.Database, cts []*Container) [][]byte {
	t.Helper()
	cold, err := NewService(seed)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	_, err = db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		for _, ct := range cts {
			sp, err := cold.StoreSubspace(tr, ct, 8)
			if err != nil {
				return nil, err
			}
			out = append(out, sp.Bytes())
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// describeMoved renders what a client sees of the moved store: its records,
// its quota and per-zone counts, each zone's sync feed, and the feed a device
// resuming from checkpoint gets.
func describeMoved(t *testing.T, env *moveEnv, db *fdb.Database, checkpoint []byte) string {
	t.Helper()
	var b strings.Builder
	withUser(t, db, env.svc, env.cts[20], 8, func(store *core.Store, tr *fdb.Transaction) error {
		recs, err := collect(store)
		if err != nil {
			return err
		}
		for _, r := range recs {
			fmt.Fprintf(&b, "%v %v @%x; ", r.PrimaryKey, r.Message, r.Version.Bytes())
		}
		quota, err := env.svc.QuotaUsage(store, "Note")
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "quota %d", quota)
		for _, zone := range []string{"z0", "z1"} {
			n, err := env.svc.ZoneRecordCount(store, zone)
			if err != nil {
				return err
			}
			res, err := env.svc.SyncZone(store, zone, nil, 100)
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "; %s count %d sync %+v", zone, n, res.Changes)
		}
		res, err := env.svc.SyncZone(store, "z0", checkpoint, 100)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "; resumed %+v", res.Changes)
		return nil
	})
	return b.String()
}

func collect(store *core.Store) ([]*core.StoredRecord, error) {
	c := store.ScanRecords(core.ScanOptions{})
	var out []*core.StoredRecord
	for {
		r, err := c.Next()
		if err != nil || !r.OK {
			return out, err
		}
		out = append(out, r.Value)
	}
}

// checkMoveConfined checks that MoveUser's transactions on db touched only
// the moved store, the directory path naming it, and the shared set.
func checkMoveConfined(t *testing.T, seed int64, env *moveEnv, db *fdb.Database, conf *history.Confinement) {
	t.Helper()
	ct := env.cts[20]
	store := subspace.FromBytes(prefixes(t, seed, db, []*Container{ct})[0])
	elems, err := tuple.Unpack(store.Bytes()) // ("ck", user, application id)
	if err != nil {
		t.Fatal(err)
	}
	conf.Allow(nil, history.StoreRange(store))
	conf.Allow(nil, history.ResolvedPath(subspace.FromBytes([]byte{0xFE}), ct.Name, elems[2].(int64))...)
	path := env.svc.ks.MustPath("cloudkit").MustAdd("user", int64(8)).MustAdd("application", ct.Name)
	decode := func(key []byte) string {
		if store.Contains(key) {
			return path.String() + " " + history.DecodeKey(key[len(store.Bytes()):])
		}
		return history.DecodeKey(key)
	}
	if err := conf.Check(decode); err != nil {
		t.Fatalf("seed %d: moving %s: %v", seed, path, err)
	}
}

// TestMoveUserKeepsNeighbours moves a user's store for one application onto
// a cluster that already holds the user's stores for 20 others. The moved
// store must land on a prefix of its own, leave every neighbour's range
// byte-identical, read back as it did on the source, and add to the
// destination's directory only what interning its name writes there. On both
// clusters, every key the move touches must lie in the moved store, the
// directory path naming it, or the shared set.
func TestMoveUserKeepsNeighbours(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		env := newMoveEnv(t, seed)
		neighbours := prefixes(t, seed, env.dst, env.cts[:20])
		var before [][]fdb.KeyValue
		for _, p := range neighbours {
			before = append(before, dumpRange(t, env.dst, p, append(p[:len(p):len(p)], 0xFF)))
		}
		// A device synced one change of z0 before the move.
		var checkpoint []byte
		withUser(t, env.src, env.svc, env.cts[20], 8, func(store *core.Store, tr *fdb.Transaction) error {
			res, err := env.svc.SyncZone(store, "z0", nil, 1)
			if err == nil {
				checkpoint = res.Continuation
			}
			return err
		})
		want := describeMoved(t, env, env.src, checkpoint)
		confs := []*history.Confinement{history.Confine(env.src, history.SharedRanges()...),
			history.Confine(env.dst, history.SharedRanges()...)}
		if err := env.svc.MoveUser(env.src, env.dst, env.cts[20], 8); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, db := range []*fdb.Database{env.src, env.dst} {
			confs[i].Close()
			checkMoveConfined(t, seed, env, db, confs[i])
		}

		all := prefixes(t, seed, env.dst, env.cts)
		seen := map[string]int{}
		for i, p := range all {
			if j, ok := seen[string(p)]; ok {
				t.Fatalf("seed %d: containers %d and %d share the prefix %x", seed, j, i, p)
			}
			seen[string(p)] = i
		}
		for i, p := range neighbours {
			if got := dumpRange(t, env.dst, p, append(p[:len(p):len(p)], 0xFF)); !sameRange(got, before[i]) {
				t.Fatalf("seed %d: neighbour %d's range changed: %d pairs before, %d after", seed, i, len(before[i]), len(got))
			}
		}
		if got := describeMoved(t, env, env.dst, checkpoint); got != want {
			t.Fatalf("seed %d: moved store reads\n %s\nafter the move, and\n %s\nbefore it", seed, got, want)
		}
		withUser(t, env.dst, env.svc, env.cts[20], 8, func(store *core.Store, tr *fdb.Transaction) error {
			if _, err := env.svc.SyncZone(store, "z1", checkpoint, 100); !errors.Is(err, cursor.ErrCorruptContinuation) {
				t.Fatalf("seed %d: z0's continuation resumed z1: %v", seed, err)
			}
			return nil
		})

		// A twin destination, set up alike, where only the moved name is
		// interned: the directory regions must be byte-identical.
		twin := newMoveEnv(t, seed)
		if _, err := twin.dst.Transact(func(tr *fdb.Transaction) (interface{}, error) {
			_, err := twin.svc.StoreSubspace(tr, twin.cts[20], 8)
			return nil, err
		}); err != nil {
			t.Fatal(err)
		}
		if got, exp := dumpRange(t, env.dst, []byte{0xFE}, []byte{0xFF}), dumpRange(t, twin.dst, []byte{0xFE}, []byte{0xFF}); !sameRange(got, exp) {
			t.Fatalf("seed %d: the destination's directory holds %d pairs after the move; interning the name alone leaves %d",
				seed, len(got), len(exp))
		}
	}
}
