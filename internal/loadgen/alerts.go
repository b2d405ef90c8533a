package loadgen

import "quicksand/internal/fleet"

// HTTPAlerts is the /alerts polling client, now shared with the fleet
// router (which polls remote shards over the same wire shape); the
// harness keeps the name as an alias so existing callers and tests are
// untouched. See fleet.HTTPAlerts.
type HTTPAlerts = fleet.HTTPAlerts
