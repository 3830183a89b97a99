// Fixture for the nopool analyzer. Type-checked by linttest under a pretend
// path; never built into the module.
package fixture

import "sync"

// pooled: a package-level pool, and every way of naming its type.
var pooled = sync.Pool{New: func() any { return new([64]byte) }} // want "sync.Pool makes allocation depend on when the collector runs"

type holder struct {
	p *sync.Pool // want "sync.Pool makes allocation"
}

func fresh() *sync.Pool { // want "sync.Pool makes allocation"
	return new(sync.Pool) // want "sync.Pool makes allocation"
}

// stackScratch: scratch owned by the call is the invariant's happy path, and
// the rest of package sync stays legal.
func stackScratch(mu *sync.Mutex) int {
	mu.Lock()
	defer mu.Unlock()
	var buf [64]byte
	return len(append(buf[:0], "scratch"...))
}

// allowedPool: a reasoned allow directive suppresses the finding.
var allowedPool sync.Pool //lint:allow nopool fixture: the directive path must still work
