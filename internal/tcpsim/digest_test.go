package tcpsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// captureDigest is the sha256 of every Record (capture time, then length
// and bytes) of all four captures of smallConfig at seeds 1–3, pinned
// before the capture path was changed: any byte a change moves in any
// capture shows here.
const captureDigest = "18f5bebb5a5292b19df251f95e33374f46b99549901d7748d71907685b2e9be0"

func TestCaptureDigest(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	for seed := int64(1); seed <= 3; seed++ {
		cfg := smallConfig()
		cfg.Seed = seed
		tr := mustRun(t, cfg)
		for _, recs := range [][]Record{tr.ServerToExit, tr.ExitToServer, tr.GuardToClient, tr.ClientToGuard} {
			binary.BigEndian.PutUint64(buf[:], uint64(len(recs)))
			h.Write(buf[:])
			for _, r := range recs {
				binary.BigEndian.PutUint64(buf[:], uint64(r.Time.UnixNano()))
				h.Write(buf[:])
				binary.BigEndian.PutUint64(buf[:], uint64(len(r.Data)))
				h.Write(buf[:])
				h.Write(r.Data)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != captureDigest {
		t.Fatalf("capture digest = %s, want %s", got, captureDigest)
	}
}
