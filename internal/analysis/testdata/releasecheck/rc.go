// Fixture for the releasecheck analyzer: miniature pooled types behind
// Release/Recycle, created through the New*/Fork/Profile* constructor
// convention.
package releasecheck

type snap struct{ n int }

func (s *snap) Release()   {}
func (s *snap) Read() byte { return 0 }
func (s *snap) Fork() *snap {
	return &snap{n: s.n + 1}
}

type disk struct{}

func (d *disk) Recycle()  {}
func (d *disk) Size() int { return 0 }

func NewTrackedSnap() *snap { return &snap{} }
func NewPooledDisk() *disk  { return &disk{} }

func helper(s *snap) {}

// profile and monkey mirror crashmonkey's profiling entry points: a profile
// built over a shared oracle is still the caller's to release.
type profile struct{ snap }

type monkey struct{}

func (m *monkey) ProfileExpected(exps []int) (*profile, error) { return &profile{}, nil }

// recorder mirrors blockdev.Recorder: a recording device whose write log
// lends pooled buffers until Release.
type recorder struct{}

func (r *recorder) Release()           {}
func (r *recorder) WriteBlock(n int64) {}

func NewRecorder(base *disk) *recorder { return &recorder{} }

func okDefer() {
	s := NewTrackedSnap()
	defer s.Release()
	_ = s.Read()
}

func okExplicit() {
	s := NewTrackedSnap()
	_ = s.Read()
	s.Release()
}

func okEscapeReturn() *snap {
	s := NewTrackedSnap()
	return s // ownership transferred to the caller
}

func okEscapeArg() {
	s := NewTrackedSnap()
	helper(s) // ownership shared with the callee
}

func okRecycle() {
	d := NewPooledDisk()
	_ = d.Size()
	d.Recycle()
}

func okProfile(m *monkey) {
	p, err := m.ProfileExpected(nil)
	if err != nil {
		return
	}
	defer p.Release()
	_ = p.Read()
}

func okConditionalRelease(b bool) {
	s := NewTrackedSnap()
	if b {
		s.Release()
		return
	}
	_ = s.Read() // the release above is conditional: no use-after-release
	s.Release()
}

func discarded() {
	NewTrackedSnap() // want "discarded"
}

func discardedBlank() {
	_ = NewTrackedSnap() // want "discarded"
}

func leaked() {
	s := NewTrackedSnap() // want "never released"
	_ = s.Read()
}

func leakedRecycle() {
	d := NewPooledDisk() // want "never released"
	_ = d.Size()
}

func leakedProfile(m *monkey) {
	p, err := m.ProfileExpected(nil) // want "never released"
	if err != nil {
		return
	}
	_ = p.Read()
}

func useAfterRelease() {
	s := NewTrackedSnap()
	s.Release()
	_ = s.Read() // want "used after Release"
}

func doubleRelease() {
	s := NewTrackedSnap()
	_ = s.Read()
	s.Release()
	s.Release() // want "released twice"
}

func reassigned() {
	s := NewTrackedSnap()
	s.Release()
	s = NewTrackedSnap()
	_ = s.Read() // reassignment resets the release tracking: allowed
	s.Release()
}

func forkLeak() {
	s := NewTrackedSnap()
	defer s.Release()
	f := s.Fork() // want "never released"
	_ = f.Read()
}

func closureRelease() {
	s := NewTrackedSnap()
	defer func() { s.Release() }()
	_ = s.Read()
}

func allowedLeak() {
	//lint:allow releasecheck lifetime owned by the test harness (fixture)
	s := NewTrackedSnap()
	_ = s.Read()
}

func okRecorder(d *disk) {
	r := NewRecorder(d)
	defer r.Release()
	r.WriteBlock(0)
}

func leakedRecorder(d *disk) {
	r := NewRecorder(d) // want "never released"
	r.WriteBlock(0)
}

func recorderUseAfterRelease(d *disk) {
	r := NewRecorder(d)
	r.WriteBlock(0)
	r.Release()
	r.WriteBlock(1) // want "used after Release"
}
