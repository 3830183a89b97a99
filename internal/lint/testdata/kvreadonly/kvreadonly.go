// Fixture for the kvreadonly analyzer. Type-checked by linttest under a
// pretend import path; never built into the module.
package fixture

import "recordlayer/internal/fdb"

// fieldWrites: every write form into a KeyValue's bytes, through a value, an
// element of the batch and a pointer.
func fieldWrites(kvs []fdb.KeyValue, kv fdb.KeyValue, p *fdb.KeyValue) {
	kv.Value[0] = 1         // want "kv.Value\[0\] writes into bytes a read returned"
	kvs[0].Key[1] ^= 0xff   // want "kvs\[0\].Key\[1\] writes into bytes a read returned"
	p.Value[2]++            // want "p.Value\[2\] writes into bytes a read returned"
	kvs[1].Value[0]--       // want "kvs\[1\].Value\[0\] writes into bytes a read returned"
	copy(kv.Key, "x")       // want "copy into kv.Key writes into bytes a read returned"
	copy(p.Value[2:4], "y") // want "copy into p.Value\[2:4\] writes into bytes a read returned"
}

// rangeLoop: the loop variable is a KeyValue like any other.
func rangeLoop(kvs []fdb.KeyValue) {
	for _, kv := range kvs {
		kv.Key[0] = 0 // want "kv.Key\[0\] writes into bytes a read returned"
	}
}

// heldLocals: a local assigned directly from a Get or a field holds read
// bytes, and so does a reslice of it.
func heldLocals(tr *fdb.Transaction, kv fdb.KeyValue) {
	v, _ := tr.Get([]byte("a"))
	v[0] = 1 // want "v\[0\] writes into bytes a read returned"
	s, _ := tr.Snapshot().Get([]byte("b"))
	copy(s[1:], "z") // want "copy into s\[1:\] writes into bytes a read returned"
	f, _ := tr.GetAsync([]byte("c")).Get()
	f[0] += 2 // want "f\[0\] writes into bytes a read returned"
	var k = kv.Key
	k[0]++ // want "k\[0\] writes into bytes a read returned"
	func() {
		v[1] = 0 // want "v\[1\] writes into bytes a read returned"
	}()
}

// pairsAt: a future's reply hands each pair out by value from At, with the
// database's bytes in it, directly or through a local.
func pairsAt(tr *fdb.Transaction) {
	p, _, _ := tr.GetRangeAsync([]byte("a"), []byte("b"), fdb.RangeOptions{}).Get()
	p.At(0).Value[0] = 1 // want "p.At\(0\).Value\[0\] writes into bytes a read returned"
	k := p.At(1).Key
	k[0]++                 // want "k\[0\] writes into bytes a read returned"
	copy(p.At(2).Key, "x") // want "copy into p.At\(2\).Key writes into bytes a read returned"
}

// batchIsTheCallers: the []KeyValue a range read returns is fresh on every
// call, so replacing its elements is fine.
func batchIsTheCallers(tr *fdb.Transaction) {
	kvs, _, _ := tr.GetRange([]byte("a"), []byte("b"), fdb.RangeOptions{})
	kvs[0] = fdb.KeyValue{}
	kvs[1].Key = nil
}

// copiesAreFree: writing into a copy, or appending (read bytes have
// cap == len), touches nothing shared.
func copiesAreFree(tr *fdb.Transaction, kv fdb.KeyValue) []byte {
	v, _ := tr.Get([]byte("a"))
	own := append([]byte(nil), v...)
	own[0] = 1
	buf := make([]byte, len(kv.Value))
	copy(buf, kv.Value)
	buf[0]++
	return append(kv.Key, 0)
}

// otherStructs: a Key field of some other type is not read bytes.
type entry struct{ Key []byte }

func otherStructs(e entry) {
	e.Key[0] = 1
	copy(e.Key, "x")
}

// allowed: a reasoned directive suppresses the finding.
func allowed(kv fdb.KeyValue) {
	//lint:allow kvreadonly the fixture exercises the allowlist path
	kv.Value[0] = 1
}
