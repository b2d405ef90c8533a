// Package bgp implements the BGP-4 message model and wire format
// (RFC 4271), including 4-octet AS numbers (RFC 6793) and the COMMUNITIES
// attribute (RFC 1997).
//
// The package provides value types for the four BGP message kinds plus
// binary marshalling that round-trips bit-for-bit, which is what the MRT
// archive layer (internal/mrt) and the update-stream generator
// (internal/bgpsim) build on. Only the features the paper's analyses need
// are implemented, but those are implemented fully: UPDATE messages with
// withdrawn routes, the mandatory path attributes, AS_PATH with both
// AS_SEQUENCE and AS_SET segments, and communities (used by the
// community-scoped stealth hijack of §3.2).
package bgp

import (
	"cmp"
	"fmt"
	"net/netip"
	"strings"
)

// ASN is a 4-octet autonomous system number (RFC 6793).
type ASN uint32

// String renders the ASN in the canonical "ASxxx" form.
func (a ASN) String() string { return fmt.Sprintf("AS%d", uint32(a)) }

// Message type codes (RFC 4271 §4.1).
const (
	TypeOpen         = 1
	TypeUpdate       = 2
	TypeNotification = 3
	TypeKeepalive    = 4
)

// Origin attribute values (RFC 4271 §5.1.1).
const (
	OriginIGP        = 0
	OriginEGP        = 1
	OriginIncomplete = 2
)

// Path attribute type codes (RFC 4271 §5, RFC 1997).
const (
	AttrOrigin          = 1
	AttrASPath          = 2
	AttrNextHop         = 3
	AttrMED             = 4
	AttrLocalPref       = 5
	AttrAtomicAggregate = 6
	AttrAggregator      = 7
	AttrCommunities     = 8
)

// AS_PATH segment types (RFC 4271 §4.3).
const (
	SegmentSet      = 1
	SegmentSequence = 2
)

// Well-known communities (RFC 1997).
const (
	CommunityNoExport          Community = 0xFFFFFF01
	CommunityNoAdvertise       Community = 0xFFFFFF02
	CommunityNoExportSubconfed Community = 0xFFFFFF03
)

// Community is a 32-bit BGP community value. The conventional rendering is
// "high:low" with the attacker-relevant scoping semantics of §3.2.
type Community uint32

// String renders the community as "high:low", or the well-known name.
func (c Community) String() string {
	switch c {
	case CommunityNoExport:
		return "no-export"
	case CommunityNoAdvertise:
		return "no-advertise"
	case CommunityNoExportSubconfed:
		return "no-export-subconfed"
	}
	return fmt.Sprintf("%d:%d", uint32(c)>>16, uint32(c)&0xFFFF)
}

// Segment is one AS_PATH segment.
type Segment struct {
	Type int // SegmentSet or SegmentSequence
	ASes []ASN
}

// ASPath is an ordered list of AS_PATH segments.
type ASPath struct {
	Segments []Segment
}

// Sequence builds an ASPath holding a single AS_SEQUENCE segment, the
// overwhelmingly common case.
func Sequence(ases ...ASN) ASPath {
	return ASPath{Segments: []Segment{{Type: SegmentSequence, ASes: append([]ASN(nil), ases...)}}}
}

// emptyPath marks an announcement with a present-but-empty AS_PATH.
var emptyPath = []ASN{}

// FlattenPath flattens an AS_PATH into one AS sequence over dst's
// storage (dst[:0]; nil allocates). A present-but-empty path (zero
// segments, or only empty segments) flattens to a non-nil empty slice so
// it stays an announcement; nil is reserved for withdrawals.
func FlattenPath(dst []ASN, p ASPath) []ASN {
	out := dst[:0]
	if out == nil {
		out = emptyPath
	}
	for _, seg := range p.Segments {
		out = append(out, seg.ASes...)
	}
	return out
}

// String renders the path in the usual "1 2 {3,4}" notation.
func (p ASPath) String() string {
	var b strings.Builder
	for i, s := range p.Segments {
		if i > 0 {
			b.WriteByte(' ')
		}
		if s.Type == SegmentSet {
			b.WriteByte('{')
			for j, a := range s.ASes {
				if j > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%d", uint32(a))
			}
			b.WriteByte('}')
			continue
		}
		for j, a := range s.ASes {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", uint32(a))
		}
	}
	return b.String()
}

// Aggregator is the AGGREGATOR path attribute payload.
type Aggregator struct {
	ASN  ASN
	Addr netip.Addr
}

// PathAttributes carries the recognised path attributes of an UPDATE.
// Optional attributes use presence flags rather than pointers so the zero
// value is useful.
type PathAttributes struct {
	Origin          int // OriginIGP/EGP/Incomplete; valid when HasOrigin
	HasOrigin       bool
	ASPath          ASPath
	HasASPath       bool
	NextHop         netip.Addr // valid when NextHop.IsValid()
	MED             uint32
	HasMED          bool
	LocalPref       uint32
	HasLocalPref    bool
	AtomicAggregate bool
	Aggregator      *Aggregator
	Communities     []Community
}

// Open is a BGP OPEN message (RFC 4271 §4.2). The AS field carries
// AS_TRANS (23456) on the wire when the real ASN does not fit 16 bits; the
// full 4-octet ASN is negotiated via capability 65, which this package
// models with the AS4 field.
type Open struct {
	Version  uint8
	ASN      ASN
	HoldTime uint16
	BGPID    netip.Addr
	AS4      bool // advertise 4-octet-AS capability
}

// Update is a BGP UPDATE message (RFC 4271 §4.3).
type Update struct {
	Withdrawn []netip.Prefix
	Attrs     PathAttributes
	NLRI      []netip.Prefix
}

// ComparePrefix orders prefixes by address, then by length: the order
// every sorted prefix list in the repository is kept in.
func ComparePrefix(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return cmp.Compare(a.Bits(), b.Bits())
}

// Notification is a BGP NOTIFICATION message (RFC 4271 §4.5).
type Notification struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

// Notification error codes (RFC 4271 §4.5) used by the session machinery.
const (
	NotifMessageHeaderError = 1
	NotifOpenMessageError   = 2
	NotifUpdateMessageError = 3
	NotifHoldTimerExpired   = 4
	NotifFSMError           = 5
	NotifCease              = 6
)

// Keepalive is a BGP KEEPALIVE message: a bare header.
type Keepalive struct{}

// AnnouncesOrWithdraws reports whether the update carries any routing
// information at all (an UPDATE with neither NLRI nor withdrawals is an
// End-of-RIB marker in practice).
func (u *Update) AnnouncesOrWithdraws() bool {
	return len(u.NLRI) > 0 || len(u.Withdrawn) > 0
}
