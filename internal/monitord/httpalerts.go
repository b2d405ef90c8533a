package monitord

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// HTTPAlerts is the one client of the /alerts wire struct: it serves a
// daemon's /alerts endpoint with the cursor contract of Daemon.Alerts,
// polling over the same path a real client takes. Poll failures return
// no alerts with the cursor unchanged — the poller simply retries — and
// are tallied in Errs: an alerts API that is down shows up as a stalled
// cursor plus a non-zero error count.
type HTTPAlerts struct {
	// Base is the instance's HTTP root, e.g. "http://127.0.0.1:8179".
	Base string
	// Client defaults to a 10s-timeout client.
	Client *http.Client
	// Errs counts failed polls and undecodable alerts.
	Errs atomic.Uint64
}

// Alerts is Daemon.Alerts over GET /alerts?since=N&max=M.
func (h *HTTPAlerts) Alerts(cursor uint64, max int) ([]SeqAlert, uint64, uint64) {
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
	var body alertsResponse
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&body) != nil {
		h.Errs.Add(1)
		return nil, cursor, 0
	}
	alerts := make([]SeqAlert, 0, len(body.Alerts))
	for _, j := range body.Alerts {
		a, err := j.alert()
		if err != nil {
			h.Errs.Add(1)
			continue
		}
		alerts = append(alerts, a)
	}
	return alerts, body.Next, body.Dropped
}
