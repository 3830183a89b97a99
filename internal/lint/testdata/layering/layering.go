// Fixture for the layering analyzer. Type-checked by linttest under the
// pretend path recordlayer/internal/kvcursor (layer 3); never built into the
// module.
package fixture

import (
	"fmt"    // the standard library is not layered
	"unsafe" // want "recordlayer/internal/kvcursor imports unsafe; only recordlayer/internal/message may"

	_ "recordlayer/internal/cursor" // layer 0
	_ "recordlayer/internal/fdb"    // layer 1

	_ "recordlayer/internal/bunched"  // want "kvcursor \(layer 3\) imports recordlayer/internal/bunched \(layer 3\)"
	_ "recordlayer/internal/history"  // want "imports recordlayer/internal/history \(layer 11\)"
	_ "recordlayer/internal/index"    // want "imports recordlayer/internal/index \(layer 4\); imports must point down"
	_ "recordlayer/internal/resource" // want "imports recordlayer/internal/resource \(layer 6\)"
)

var _ = fmt.Sprint

var _ = unsafe.Sizeof(0)
