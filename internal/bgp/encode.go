package bgp

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Wire-format constants (RFC 4271 §4.1).
const (
	HeaderLen     = 19
	MarkerLen     = 16
	MaxMessageLen = 4096
	// ASTrans is the 2-octet placeholder AS used on the wire when a
	// 4-octet ASN must be squeezed into a 2-octet field (RFC 6793).
	ASTrans ASN = 23456
)

// Attribute flag bits (RFC 4271 §4.3).
const (
	flagOptional   = 0x80
	flagTransitive = 0x40
	flagExtLen     = 0x10
)

// Capability codes (RFC 5492, RFC 6793).
const (
	capFourOctetAS     = 65
	optParamCapability = 2
)

func appendHeader(dst []byte, msgType int, bodyLen int) []byte {
	for i := 0; i < MarkerLen; i++ {
		dst = append(dst, 0xFF)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(HeaderLen+bodyLen))
	return append(dst, byte(msgType))
}

// appendPrefix appends the RFC 4271 NLRI encoding of p: one length byte
// followed by the minimum number of address bytes.
func appendPrefix(dst []byte, p netip.Prefix) ([]byte, error) {
	if !p.IsValid() || !p.Addr().Is4() {
		return dst, fmt.Errorf("bgp: cannot encode non-IPv4 prefix %v", p)
	}
	p = p.Masked()
	dst = append(dst, byte(p.Bits()))
	b := p.Addr().As4()
	return append(dst, b[:(p.Bits()+7)/8]...), nil
}

func appendASPath(dst []byte, p ASPath, as4 bool) ([]byte, error) {
	for _, s := range p.Segments {
		if s.Type != SegmentSet && s.Type != SegmentSequence {
			return dst, fmt.Errorf("bgp: invalid AS_PATH segment type %d", s.Type)
		}
		if len(s.ASes) == 0 || len(s.ASes) > 255 {
			return dst, fmt.Errorf("bgp: AS_PATH segment with %d ASes", len(s.ASes))
		}
		dst = append(dst, byte(s.Type), byte(len(s.ASes)))
		for _, a := range s.ASes {
			if as4 {
				dst = binary.BigEndian.AppendUint32(dst, uint32(a))
				continue
			}
			if a > 0xFFFF {
				a = ASTrans
			}
			dst = binary.BigEndian.AppendUint16(dst, uint16(a))
		}
	}
	return dst, nil
}

// Marshal encodes the UPDATE into a full BGP message (header included).
// as4 selects 4-octet AS_PATH encoding, matching a session on which the
// 4-octet-AS capability was negotiated.
func (u *Update) Marshal(as4 bool) ([]byte, error) {
	return u.AppendMessage(nil, as4)
}

// appendAttrHeader writes one attribute's flags/type/length prefix, with
// the extended-length flag set automatically when vlen exceeds 255. The
// caller appends exactly vlen value bytes next.
func appendAttrHeader(dst []byte, flags, typ byte, vlen int) []byte {
	if vlen > 255 {
		flags |= flagExtLen
	}
	dst = append(dst, flags, typ)
	if flags&flagExtLen != 0 {
		return binary.BigEndian.AppendUint16(dst, uint16(vlen))
	}
	return append(dst, byte(vlen))
}

// asPathWireLen is the encoded size of p: every attribute length here is
// computable up front, which is what lets AppendMessage encode straight
// into dst with no intermediate value buffers.
func asPathWireLen(p ASPath, as4 bool) int {
	w := 2
	if as4 {
		w = 4
	}
	n := 0
	for _, s := range p.Segments {
		n += 2 + len(s.ASes)*w
	}
	return n
}

// appendAttributes appends the path-attribute block (without its 2-byte
// total length, which the caller backpatches).
func appendAttributes(dst []byte, a *PathAttributes, as4 bool) ([]byte, error) {
	if a.HasOrigin {
		if a.Origin < OriginIGP || a.Origin > OriginIncomplete {
			return dst, fmt.Errorf("bgp: invalid ORIGIN %d", a.Origin)
		}
		dst = appendAttrHeader(dst, flagTransitive, AttrOrigin, 1)
		dst = append(dst, byte(a.Origin))
	}
	if a.HasASPath {
		dst = appendAttrHeader(dst, flagTransitive, AttrASPath, asPathWireLen(a.ASPath, as4))
		var err error
		if dst, err = appendASPath(dst, a.ASPath, as4); err != nil {
			return dst, err
		}
	}
	if a.NextHop.IsValid() {
		if !a.NextHop.Is4() {
			return dst, fmt.Errorf("bgp: NEXT_HOP %v is not IPv4", a.NextHop)
		}
		nh := a.NextHop.As4()
		dst = appendAttrHeader(dst, flagTransitive, AttrNextHop, 4)
		dst = append(dst, nh[:]...)
	}
	if a.HasMED {
		dst = appendAttrHeader(dst, flagOptional, AttrMED, 4)
		dst = binary.BigEndian.AppendUint32(dst, a.MED)
	}
	if a.HasLocalPref {
		dst = appendAttrHeader(dst, flagTransitive, AttrLocalPref, 4)
		dst = binary.BigEndian.AppendUint32(dst, a.LocalPref)
	}
	if a.AtomicAggregate {
		dst = appendAttrHeader(dst, flagTransitive, AttrAtomicAggregate, 0)
	}
	if a.Aggregator != nil {
		if !a.Aggregator.Addr.Is4() {
			return dst, fmt.Errorf("bgp: AGGREGATOR address %v is not IPv4", a.Aggregator.Addr)
		}
		vlen := 6
		if as4 {
			vlen = 8
		}
		dst = appendAttrHeader(dst, flagOptional|flagTransitive, AttrAggregator, vlen)
		if as4 {
			dst = binary.BigEndian.AppendUint32(dst, uint32(a.Aggregator.ASN))
		} else {
			asn := a.Aggregator.ASN
			if asn > 0xFFFF {
				asn = ASTrans
			}
			dst = binary.BigEndian.AppendUint16(dst, uint16(asn))
		}
		ip := a.Aggregator.Addr.As4()
		dst = append(dst, ip[:]...)
	}
	if len(a.Communities) > 0 {
		dst = appendAttrHeader(dst, flagOptional|flagTransitive, AttrCommunities, 4*len(a.Communities))
		for _, c := range a.Communities {
			dst = binary.BigEndian.AppendUint32(dst, uint32(c))
		}
	}
	return dst, nil
}

// AppendMessage appends the UPDATE's full wire encoding (header
// included) to dst and returns the extended slice — the encode twin of
// ParseUpdateInto. It writes every section straight into dst,
// backpatching the three length fields, so a caller reusing dst's
// capacity (e.g. a session marshaling a burst) allocates nothing. On
// error dst is returned truncated to its original length.
func (u *Update) AppendMessage(dst []byte, as4 bool) ([]byte, error) {
	start := len(dst)
	dst = appendHeader(dst, TypeUpdate, 0) // total length backpatched below

	var err error
	wdStart := len(dst)
	dst = append(dst, 0, 0)
	for _, p := range u.Withdrawn {
		if dst, err = appendPrefix(dst, p); err != nil {
			return dst[:start], err
		}
	}
	binary.BigEndian.PutUint16(dst[wdStart:], uint16(len(dst)-wdStart-2))

	atStart := len(dst)
	dst = append(dst, 0, 0)
	if dst, err = appendAttributes(dst, &u.Attrs, as4); err != nil {
		return dst[:start], err
	}
	binary.BigEndian.PutUint16(dst[atStart:], uint16(len(dst)-atStart-2))

	for _, p := range u.NLRI {
		if dst, err = appendPrefix(dst, p); err != nil {
			return dst[:start], err
		}
	}
	msgLen := len(dst) - start
	if msgLen > MaxMessageLen {
		return dst[:start], fmt.Errorf("bgp: UPDATE length %d exceeds maximum %d", msgLen, MaxMessageLen)
	}
	binary.BigEndian.PutUint16(dst[start+MarkerLen:], uint16(msgLen))
	return dst, nil
}

// Marshal encodes the OPEN into a full BGP message. When o.AS4 is set, the
// 4-octet-AS capability is included as an optional parameter and ASTrans
// substitutes for ASNs wider than 16 bits in the fixed field.
func (o *Open) Marshal() ([]byte, error) {
	if !o.BGPID.Is4() {
		return nil, fmt.Errorf("bgp: BGP identifier %v is not IPv4", o.BGPID)
	}
	var opt []byte
	if o.AS4 {
		cap := binary.BigEndian.AppendUint32([]byte{capFourOctetAS, 4}, uint32(o.ASN))
		opt = append(opt, optParamCapability, byte(len(cap)))
		opt = append(opt, cap...)
	}
	wireAS := o.ASN
	if wireAS > 0xFFFF {
		wireAS = ASTrans
	}
	bodyLen := 10 + len(opt)
	out := make([]byte, 0, HeaderLen+bodyLen)
	out = appendHeader(out, TypeOpen, bodyLen)
	out = append(out, o.Version)
	out = binary.BigEndian.AppendUint16(out, uint16(wireAS))
	out = binary.BigEndian.AppendUint16(out, o.HoldTime)
	id := o.BGPID.As4()
	out = append(out, id[:]...)
	out = append(out, byte(len(opt)))
	out = append(out, opt...)
	return out, nil
}

// Marshal encodes the NOTIFICATION into a full BGP message.
func (n *Notification) Marshal() ([]byte, error) {
	bodyLen := 2 + len(n.Data)
	if HeaderLen+bodyLen > MaxMessageLen {
		return nil, fmt.Errorf("bgp: NOTIFICATION too long (%d data bytes)", len(n.Data))
	}
	out := make([]byte, 0, HeaderLen+bodyLen)
	out = appendHeader(out, TypeNotification, bodyLen)
	out = append(out, n.Code, n.Subcode)
	return append(out, n.Data...), nil
}

// Marshal encodes the KEEPALIVE (a bare header).
func (k *Keepalive) Marshal() ([]byte, error) {
	return appendHeader(make([]byte, 0, HeaderLen), TypeKeepalive, 0), nil
}
