// Fixture for the clockinject analyzer. Type-checked by linttest under the
// pretend path recordlayer/internal/resource/lease (a clocked package); never
// built into the module.
package fixture

import "time"

type cfg struct {
	clock func() time.Time
	sleep func(time.Duration)
}

// wallReads: every wall-clock call bypasses the injected clock.
func wallReads(c cfg) time.Duration {
	start := time.Now()          // want "time.Now\(\) bypasses lease's injectable clock"
	time.Sleep(time.Millisecond) // want "time.Sleep\(\) bypasses lease's injectable clock; inject the package's sleep function"
	d := time.Since(start)       // want "time.Since\(\) bypasses"
	deadline := start.Add(time.Second)
	d += time.Until(deadline) // want "time.Until\(\) bypasses"
	return d
}

// injected: reading through the injected members is the invariant's happy path.
func injected(c cfg) time.Time {
	c.sleep(time.Millisecond)
	return c.clock()
}

// defaulting: *referencing* time.Now without calling it is the injection
// idiom itself and stays legal.
func defaulting(c cfg) cfg {
	if c.clock == nil {
		c.clock = time.Now
	}
	if c.sleep == nil {
		c.sleep = time.Sleep
	}
	return c
}

// allowedWall: a reasoned allow directive suppresses the finding.
func allowedWall() time.Time {
	return time.Now() //lint:allow clockinject fixture: wall-clock timestamp for an export filename, not simulation time
}
