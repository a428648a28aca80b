package des

// funcs is the test-only handler most engine tests schedule through: each
// event's Arg0 indexes a registered func, so a test can write an event's
// effect inline. The engine itself has only typed events.
type funcs struct {
	e  *Engine
	fn []func()
}

// newFuncs installs a funcs handler on e.
func newFuncs(e *Engine) *funcs {
	f := &funcs{e: e}
	e.SetHandler(func(ev Event) { f.fn[ev.Arg0]() })
	return f
}

// at schedules fn at absolute virtual time t.
func (f *funcs) at(t float64, fn func()) {
	f.fn = append(f.fn, fn)
	f.e.AtKind(t, 1, int32(len(f.fn)-1), 0)
}

// after schedules fn after delay d.
func (f *funcs) after(d float64, fn func()) { f.at(f.e.Now()+d, fn) }
