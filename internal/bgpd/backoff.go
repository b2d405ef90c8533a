package bgpd

import (
	"context"
	"hash/fnv"
	"math/rand"
	"time"

	"quicksand/internal/par"
)

// Backoff is the redial schedule of every outbound BGP session (the
// collector dialers of Server.Collect): jittered exponential backoff
// with a "proved healthy" reset rule. It is not safe for concurrent use;
// each dial loop owns its own instance.
//
// The jitter stream is derived deterministically from (seed, key) so two
// dialers never synchronize their retry storms, yet a test re-running
// the same configuration observes the same schedule.
type Backoff struct {
	base, max    time.Duration
	healthyAfter time.Duration
	cur          time.Duration
	rng          *rand.Rand
}

// NewBackoff returns a schedule starting at base and doubling up to max
// on each Fail. healthyAfter is the session age past which SessionEnded
// resets the schedule (see SessionEnded). key is typically the remote
// address; it decorrelates the jitter of multiple dialers sharing a
// seed.
func NewBackoff(base, max, healthyAfter time.Duration, seed int64, key string) *Backoff {
	h := fnv.New64a()
	h.Write([]byte(key))
	return &Backoff{
		base:         base,
		max:          max,
		healthyAfter: healthyAfter,
		cur:          base,
		rng:          par.NewRand(par.TrialSeed(seed, int(h.Sum64()%(1<<31)))),
	}
}

// Current reports the nominal (unjittered) delay the next Sleep will
// scale — what a log line should print.
func (b *Backoff) Current() time.Duration { return b.cur }

// Fail doubles the delay, saturating at the configured maximum.
func (b *Backoff) Fail() {
	b.cur = minDur(b.cur*2, b.max)
}

// Reset returns the schedule to its base delay.
func (b *Backoff) Reset() { b.cur = b.base }

// SessionEnded adjusts the schedule after an established session drops.
// Only a session that proved healthy — survived healthyAfter or carried
// at least one update (sawUpdate) — resets the backoff; a peer that
// establishes and immediately hangs up keeps the exponential schedule,
// so a flapping remote cannot force a tight redial loop.
func (b *Backoff) SessionEnded(established time.Time, sawUpdate bool) {
	if time.Since(established) >= b.healthyAfter || sawUpdate {
		b.Reset()
	} else {
		b.Fail()
	}
}

// Sleep blocks for the current delay scaled by a uniform [0.5, 1.5)
// jitter factor, returning false when ctx is cancelled first.
func (b *Backoff) Sleep(ctx context.Context) bool {
	jittered := time.Duration((0.5 + b.rng.Float64()) * float64(b.cur))
	t := time.NewTimer(jittered)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}
