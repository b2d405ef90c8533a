package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/netip"
	"sync/atomic"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/defense"
	"quicksand/internal/monitord"
)

// HTTPAlerts adapts an /alerts endpoint (a monitord shard's or a fleet
// router's — the wire shape is identical) to the AlertSource interface.
// The router uses it to poll remote shards; the loadgen harness uses it
// to measure the same path a real fleet client takes. Poll failures
// return no alerts with the cursor unchanged — the poller simply
// retries — and are tallied in Errs for post-run inspection: a target
// whose alerts API is down shows up as lost tracers plus a non-zero
// error count, not a crashed run.
type HTTPAlerts struct {
	// Base is the instance's HTTP root, e.g. "http://127.0.0.1:8179".
	Base string
	// Client defaults to a 10s-timeout client.
	Client *http.Client
	// Errs counts failed polls.
	Errs atomic.Uint64
}

// Alerts implements AlertSource over GET /alerts?since=N&max=M.
func (h *HTTPAlerts) Alerts(cursor uint64, max int) ([]monitord.SeqAlert, uint64, uint64) {
	client := h.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	url := fmt.Sprintf("%s/alerts?since=%d", h.Base, cursor)
	if max > 0 {
		url += fmt.Sprintf("&max=%d", max)
	}
	resp, err := client.Get(url)
	if err != nil {
		h.Errs.Add(1)
		return nil, cursor, 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		h.Errs.Add(1)
		return nil, cursor, 0
	}
	var body struct {
		Alerts []struct {
			Seq        uint64    `json:"seq"`
			Time       time.Time `json:"time"`
			Session    int       `json:"session"`
			Prefix     string    `json:"prefix"`
			Kind       string    `json:"kind"`
			ObservedAS uint32    `json:"observed_as"`
		} `json:"alerts"`
		Next    uint64 `json:"next"`
		Dropped uint64 `json:"dropped"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		h.Errs.Add(1)
		return nil, cursor, 0
	}
	alerts := make([]monitord.SeqAlert, 0, len(body.Alerts))
	for _, a := range body.Alerts {
		pfx, err := netip.ParsePrefix(a.Prefix)
		kind, known := ParseAlertKind(a.Kind)
		if err != nil || !known {
			h.Errs.Add(1)
			continue
		}
		alerts = append(alerts, monitord.SeqAlert{
			Seq: a.Seq,
			Alert: defense.Alert{
				Time:     a.Time,
				Session:  a.Session,
				Prefix:   pfx,
				Kind:     kind,
				Observed: bgp.ASN(a.ObservedAS),
			},
		})
	}
	return alerts, body.Next, body.Dropped
}

// ParseAlertKind inverts defense.AlertKind.String; an unknown string is
// reported, never mapped to a default kind.
func ParseAlertKind(s string) (defense.AlertKind, bool) {
	for k := defense.AlertOriginChange; k <= defense.AlertNewUpstream; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}
