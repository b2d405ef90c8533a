package bgpd

import (
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"quicksand/internal/bgp"
)

// TestRecvUpdateBatchStamped checks the batch-start stamp: non-zero and
// monotonically bracketed for every non-empty batch, zero when nothing
// was decoded, and the decoded updates identical to RecvUpdateBatch's.
func TestRecvUpdateBatchStamped(t *testing.T) {
	wire, want := testWire(t, false)
	s := rawSession(newChunkConn(append([]byte(nil), wire...), 64))
	var got []bgp.Update
	before := time.Now()
	var last time.Time
	for {
		dst := make([]bgp.Update, 3)
		n, start, err := s.recvUpdateBatch(dst)
		if n > 0 {
			if start.IsZero() {
				t.Fatal("non-empty batch with zero stamp")
			}
			if start.Before(before) {
				t.Fatalf("stamp %v before the read began %v", start, before)
			}
			if time.Since(start) < 0 {
				t.Fatalf("stamp %v in the future", start)
			}
			if start.Before(last) {
				t.Fatalf("stamps went backwards: %v after %v", start, last)
			}
			last = start
		}
		got = append(got, dst[:n]...)
		if err != nil {
			if n == 0 && !start.IsZero() {
				t.Fatal("empty terminal batch with non-zero stamp")
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("terminal err = %v", err)
			}
			break
		}
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d updates, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(&got[i], want[i]) {
			t.Errorf("update %d = %+v, want %+v", i, &got[i], want[i])
		}
	}
}

// TestSendRaw pre-encodes a burst with AppendMessage and replays it via
// SendRaw; the receiver must decode the identical update sequence, and
// the per-message accounting must match SendUpdates'.
func TestSendRaw(t *testing.T) {
	a, b := pair(t, speakerCfg, collectorCfg)

	_, want := testWire(t, a.AS4())
	var raw []byte
	var err error
	for _, u := range want {
		if raw, err = u.AppendMessage(raw, a.AS4()); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan error, 1)
	go func() { done <- a.SendRaw(raw, len(want)) }()

	var got []bgp.Update
	for len(got) < len(want) {
		dst := make([]bgp.Update, len(want))
		n, err := b.RecvUpdateBatch(dst)
		got = append(got, dst[:n]...)
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("SendRaw: %v", err)
	}
	for i := range got {
		if !reflect.DeepEqual(&got[i], want[i]) {
			t.Errorf("update %d = %+v, want %+v", i, &got[i], want[i])
		}
	}

	// Empty burst is a no-op.
	if err := a.SendRaw(nil, 0); err != nil {
		t.Fatalf("empty SendRaw: %v", err)
	}

	discard(b)
	a.Close()
	if err := a.SendRaw(raw, len(want)); !errors.Is(err, ErrClosed) {
		t.Fatalf("SendRaw on closed session = %v, want ErrClosed", err)
	}
}
