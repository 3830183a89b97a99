package overlay

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"recordlayer/internal/fdb"
)

// probe is one issued read awaiting resolution.
type probe struct {
	desc     string
	key      []byte // point probe
	point    *fdb.FutureValue
	begin    []byte // Limit-1 probe over [begin, end)
	end      []byte
	reverse  bool
	snapshot bool
	rng      *fdb.FutureRange
	issued   int // the step it was issued at
}

func key(i int) []byte { return []byte{'k', byte('a' + i)} }

// TestResolversMatchPlainReads issues point and Limit-1 probes at random
// positions among random writes and resolves them in issue order; whatever
// was written between a probe's issue and its resolution, the resolved answer
// must equal a plain read taken at the moment of resolution. The seeds must
// cover forward and reverse probes, snapshot and serializable, and a probe
// whose own pair was rewritten, and one whose own pair was cleared, since it
// was issued.
func TestResolversMatchPlainReads(t *testing.T) {
	const alphabet = 8
	covered := map[string]int{}
	for seed := int64(1); seed <= 60; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		db := fdb.Open(nil)
		_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
			for i := 0; i < alphabet; i++ {
				if rnd.Intn(2) == 0 {
					if err := tr.Set(key(i), le64(int64(rnd.Intn(100)))); err != nil {
						return nil, err
					}
				}
			}
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
			o := New(tr)
			var pending []probe
			lastWrite := map[string]int{} // the step each key was last written at
			resolve := func() error {
				p := pending[0]
				pending = pending[1:]
				if p.point != nil {
					got, err := o.Value(p.key, p.point)
					if err != nil {
						return err
					}
					want, err := tr.Get(p.key)
					if err != nil {
						return err
					}
					if !bytes.Equal(got, want) || (got == nil) != (want == nil) {
						return fmt.Errorf("seed %d %s: Value = %x, plain read = %x", seed, p.desc, got, want)
					}
					return nil
				}
				got, ok, err := o.Boundary(p.rng, p.begin, p.end, p.reverse, p.snapshot)
				if err != nil {
					return err
				}
				covered[fmt.Sprintf("reverse=%v snapshot=%v", p.reverse, p.snapshot)]++
				if raw, _, _ := p.rng.Get(); raw.Len() == 1 && lastWrite[string(raw.At(0).Key)] > p.issued {
					if v, _ := tr.Get(raw.At(0).Key); v == nil {
						covered["own pair cleared"]++
					} else {
						covered["own pair rewritten"]++
					}
				}
				want, _, err := tr.GetRange(p.begin, p.end, fdb.RangeOptions{Limit: 1, Reverse: p.reverse})
				if err != nil {
					return err
				}
				if ok != (len(want) == 1) || ok && (!bytes.Equal(got.Key, want[0].Key) || !bytes.Equal(got.Value, want[0].Value)) {
					return fmt.Errorf("seed %d %s: Boundary = %v %v, plain read = %v", seed, p.desc, got, ok, want)
				}
				return nil
			}
			for step := 1; step <= 80; step++ {
				k := key(rnd.Intn(alphabet))
				op := rnd.Intn(8)
				switch op {
				case 0:
					if err := o.Set(k, le64(int64(rnd.Intn(100)))); err != nil {
						return nil, err
					}
				case 1:
					if err := o.Clear(k); err != nil {
						return nil, err
					}
				case 2:
					raw, err := tr.Snapshot().Get(k)
					if err != nil {
						return nil, err
					}
					var cur int64
					if raw != nil {
						cur = int64(binary.LittleEndian.Uint64(raw))
					}
					if err := o.Add(k, cur, int64(rnd.Intn(7)-3)); err != nil {
						return nil, err
					}
				case 3:
					p := probe{desc: fmt.Sprintf("step %d point %s", step, k), key: k, snapshot: rnd.Intn(2) == 0}
					if p.snapshot {
						p.point = tr.Snapshot().GetAsync(k)
					} else {
						p.point = tr.GetAsync(k)
					}
					pending = append(pending, p)
				case 4, 5:
					lo := rnd.Intn(alphabet)
					p := probe{begin: key(lo), end: key(lo + 1 + rnd.Intn(alphabet-lo)),
						reverse: rnd.Intn(2) == 0, snapshot: rnd.Intn(2) == 0, issued: step}
					p.desc = fmt.Sprintf("step %d range [%s,%s) reverse=%v", step, p.begin, p.end, p.reverse)
					opts := fdb.RangeOptions{Limit: 1, Reverse: p.reverse}
					if p.snapshot {
						p.rng = tr.Snapshot().GetRangeAsync(p.begin, p.end, opts)
					} else {
						p.rng = tr.GetRangeAsync(p.begin, p.end, opts)
					}
					pending = append(pending, p)
				default:
					if len(pending) > 0 {
						if err := resolve(); err != nil {
							return nil, err
						}
					}
				}
				if op <= 2 {
					lastWrite[string(k)] = step
				}
			}
			for len(pending) > 0 {
				if err := resolve(); err != nil {
					return nil, err
				}
			}
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []string{"reverse=false snapshot=false", "reverse=false snapshot=true",
		"reverse=true snapshot=false", "reverse=true snapshot=true", "own pair rewritten", "own pair cleared"} {
		if covered[c] == 0 {
			t.Errorf("no Limit-1 probe resolved with %s", c)
		}
	}
	t.Logf("Limit-1 probes resolved: %v", covered)
}

// TestBoundaryOutcomes pins the three ways a Limit-1 probe resolves, and that
// only the last of them reads again.
func TestBoundaryOutcomes(t *testing.T) {
	one, two := le64(1), le64(2)
	cases := []struct {
		name    string
		reverse bool
		write   func(o *Overlay) error
		wantKey []byte
		wantVal []byte
		reread  int
	}{
		{"written key beyond the probe's pair wins", true,
			func(o *Overlay) error { return o.Set(key(5), two) }, key(5), two, 0},
		{"written key beyond the probe's pair wins, forward", false,
			func(o *Overlay) error { return o.Add(key(1), 0, 2) }, key(1), two, 0},
		{"cleared key beyond the probe's pair is skipped", true,
			func(o *Overlay) error {
				if err := o.Set(key(5), two); err != nil {
					return err
				}
				return o.Clear(key(5))
			}, key(4), one, 0},
		{"probe's pair rewritten", true,
			func(o *Overlay) error { return o.Add(key(4), 1, 1) }, key(4), two, 0},
		{"probe's pair cleared: reread", true,
			func(o *Overlay) error { return o.Clear(key(4)) }, key(2), one, 1},
		{"probe's pair cleared: reread, forward", false,
			func(o *Overlay) error { return o.Clear(key(2)) }, key(4), one, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := fdb.Open(nil)
			_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
				for _, i := range []int{2, 4} {
					if err := tr.Set(key(i), one); err != nil {
						return nil, err
					}
				}
				return nil, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			_, err = db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
				o := New(tr)
				begin, end := key(0), key(7)
				fut := tr.GetRangeAsync(begin, end, fdb.RangeOptions{Limit: 1, Reverse: c.reverse})
				if err := c.write(o); err != nil {
					return nil, err
				}
				before := tr.Stats().KeysRead
				kv, ok, err := o.Boundary(fut, begin, end, c.reverse, false)
				if err != nil {
					return nil, err
				}
				if !ok || !bytes.Equal(kv.Key, c.wantKey) || !bytes.Equal(kv.Value, c.wantVal) {
					t.Errorf("Boundary = %s=%x ok=%v, want %s=%x", kv.Key, kv.Value, ok, c.wantKey, c.wantVal)
				}
				if got := tr.Stats().KeysRead - before; got != c.reread {
					t.Errorf("Boundary read %d keys, want %d", got, c.reread)
				}
				return nil, nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTurnRejectsOutOfOrderApply: ops apply in the order they were issued.
func TestTurnRejectsOutOfOrderApply(t *testing.T) {
	o := New(fdb.Open(nil).CreateTransaction())
	first, second := o.Issue(), o.Issue()
	if err := o.Turn(second); err == nil {
		t.Fatal("second op admitted before the first")
	}
	if err := o.Turn(first); err != nil {
		t.Fatal(err)
	}
	if err := o.Turn(first); err == nil {
		t.Fatal("first op admitted twice")
	}
	if err := o.Turn(second); err != nil {
		t.Fatal(err)
	}
}
