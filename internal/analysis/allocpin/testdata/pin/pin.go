package pin

//horselint:hotpath
func covered(a int) int { return a + 1 }

type gauge struct{ v int }

//horselint:hotpath
func (g *gauge) set(v int) { g.v = v }

//horselint:hotpath
func uncovered() int { return 2 } // want `hot-path function uncovered has no testing.AllocsPerRun pin`

// meter.set shares its name with the pinned gauge.set, but the pin
// calls gauge.set: meter.set itself is unmeasured.
type meter struct{ v int }

//horselint:hotpath
func (m *meter) set(v int) { m.v = v } // want `hot-path function \(meter\)\.set has no testing.AllocsPerRun pin`
