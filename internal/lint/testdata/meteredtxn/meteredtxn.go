// Fixture for the meteredtxn analyzer. Type-checked by linttest under the
// pretend path recordlayer/internal/core (a metered package); never built
// into the module.
package fixture

import "recordlayer/internal/fdb"

// rawReads: every direct read entry point bypasses the tenant Meter.
func rawReads(tr *fdb.Transaction) {
	tr.Get([]byte("k"))                                                       // want "raw Get bypasses tenant metering"
	tr.GetRange([]byte("a"), []byte("b"), fdb.RangeOptions{})                 // want "raw GetRange bypasses tenant metering"
	tr.GetAsync([]byte("k"))                                                  // want "raw GetAsync bypasses tenant metering"
	tr.Snapshot().Get([]byte("k"))                                            // want "raw Get bypasses tenant metering"
	tr.Snapshot().GetRangeAsync([]byte("a"), []byte("b"), fdb.RangeOptions{}) // want "raw GetRangeAsync bypasses tenant metering"
	tr.MetadataVersion()                                                      // want "raw MetadataVersion bypasses tenant metering"
}

// writesAreFine: the analyzer governs reads; writes meter elsewhere.
func writesAreFine(tr *fdb.Transaction) {
	tr.Set([]byte("k"), []byte("v"))
}

// meteredGet is the audited-helper shape: the raw read lives in one place,
// carries a reasoned directive, and the caller meters the result.
func meteredGet(tr *fdb.Transaction, meter func(rows, bytes int), key []byte) ([]byte, error) {
	v, err := tr.Get(key) //lint:allow meteredtxn fixture: audited helper, caller meters the returned bytes
	if err == nil {
		meter(1, len(v))
	}
	return v, err
}
