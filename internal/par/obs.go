package par

import (
	"sync/atomic"
	"time"

	"quicksand/internal/obs"
)

// Observer instruments the pool for the experiments' -v and -trace. Both
// fields are optional. The observer wraps the user function only — it
// never touches dispatch order or per-trial seed derivation, so the
// bit-for-bit determinism contract of Map is unaffected.
type Observer struct {
	// Progress, when set, is called after every task completion with the
	// number done so far, the fan-out size, and elapsed time since the
	// fan-out began. It runs on worker goroutines and must be safe for
	// concurrent use.
	Progress func(done, total int, elapsed time.Duration)
	// Trace, when set, opens one span per task (named "trial", with the
	// task index as an attribute) so a trace file carries per-trial
	// timings and the span summary reports their distribution.
	Trace *obs.Tracer
}

var observer atomic.Pointer[Observer]

// SetObserver installs the process-wide pool observer; nil disables
// instrumentation. The disabled path costs one atomic pointer load per
// Map call — nothing per task.
func SetObserver(o *Observer) { observer.Store(o) }

// instrumented wraps fn with a per-task span and progress reporting.
func instrumented[T any](ob *Observer, n int, fn func(int) (T, error)) func(int) (T, error) {
	start := time.Now()
	done := new(atomic.Int64)
	return func(i int) (T, error) {
		var sp *obs.Span
		if ob.Trace != nil {
			sp = ob.Trace.Start("trial", obs.Int("trial", i))
		}
		v, err := fn(i)
		sp.End()
		if ob.Progress != nil {
			ob.Progress(int(done.Add(1)), n, time.Since(start))
		}
		return v, err
	}
}
