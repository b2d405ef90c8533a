package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Decoding errors. Callers match with errors.Is; detail is carried in the
// wrapping message.
var (
	ErrShortMessage = errors.New("bgp: message truncated")
	ErrBadMarker    = errors.New("bgp: bad marker")
	ErrBadLength    = errors.New("bgp: bad message length")
	ErrBadAttribute = errors.New("bgp: malformed path attribute")
	ErrBadPrefix    = errors.New("bgp: malformed prefix")
)

// ParseHeader validates the 19-byte BGP message header and returns the
// message type and the total message length (header included).
func ParseHeader(data []byte) (msgType int, msgLen int, err error) {
	if len(data) < HeaderLen {
		return 0, 0, fmt.Errorf("%w: %d bytes, need %d", ErrShortMessage, len(data), HeaderLen)
	}
	for i := 0; i < MarkerLen; i++ {
		if data[i] != 0xFF {
			return 0, 0, fmt.Errorf("%w: byte %d is %#x", ErrBadMarker, i, data[i])
		}
	}
	msgLen = int(binary.BigEndian.Uint16(data[16:18]))
	msgType = int(data[18])
	if msgLen < HeaderLen || msgLen > MaxMessageLen {
		return 0, 0, fmt.Errorf("%w: %d", ErrBadLength, msgLen)
	}
	if msgType < TypeOpen || msgType > TypeKeepalive {
		return 0, 0, fmt.Errorf("bgp: unknown message type %d", msgType)
	}
	return msgType, msgLen, nil
}

// appendPrefixes decodes prefixes from data onto dst, reusing dst's
// capacity — the allocation-lean entry point batched readers decode
// through.
func appendPrefixes(dst []netip.Prefix, data []byte) ([]netip.Prefix, error) {
	for len(data) > 0 {
		bits := int(data[0])
		if bits > 32 {
			return dst, fmt.Errorf("%w: length %d bits", ErrBadPrefix, bits)
		}
		nbytes := (bits + 7) / 8
		if len(data) < 1+nbytes {
			return dst, fmt.Errorf("%w: need %d bytes, have %d", ErrBadPrefix, 1+nbytes, len(data))
		}
		var b [4]byte
		copy(b[:], data[1:1+nbytes])
		p, err := netip.AddrFrom4(b).Prefix(bits)
		if err != nil {
			return dst, fmt.Errorf("%w: %v", ErrBadPrefix, err)
		}
		dst = append(dst, p)
		data = data[1+nbytes:]
	}
	return dst, nil
}

// decodeASPathInto decodes AS_PATH segments from data into p, reusing the
// capacity of p.Segments and of each retained segment's ASes slice.
// p must arrive with len(p.Segments) == 0 (capacity is preserved).
func decodeASPathInto(p *ASPath, data []byte, as4 bool) error {
	asLen := 2
	if as4 {
		asLen = 4
	}
	for len(data) > 0 {
		if len(data) < 2 {
			return fmt.Errorf("%w: truncated AS_PATH segment header", ErrBadAttribute)
		}
		segType := int(data[0])
		count := int(data[1])
		if segType != SegmentSet && segType != SegmentSequence {
			return fmt.Errorf("%w: AS_PATH segment type %d", ErrBadAttribute, segType)
		}
		if count == 0 {
			// RFC 4271 §6.3: a zero-length segment is a malformed
			// AS_PATH; the encoder refuses to write one.
			return fmt.Errorf("%w: AS_PATH segment with 0 ASes", ErrBadAttribute)
		}
		need := 2 + count*asLen
		if len(data) < need {
			return fmt.Errorf("%w: AS_PATH segment needs %d bytes, have %d", ErrBadAttribute, need, len(data))
		}
		// Re-extend into retained capacity so a reused segment keeps its
		// ASes allocation.
		n := len(p.Segments)
		if cap(p.Segments) > n {
			p.Segments = p.Segments[:n+1]
		} else {
			p.Segments = append(p.Segments, Segment{})
		}
		seg := &p.Segments[n]
		seg.Type = segType
		seg.ASes = seg.ASes[:0]
		for i := 0; i < count; i++ {
			off := 2 + i*asLen
			if as4 {
				seg.ASes = append(seg.ASes, ASN(binary.BigEndian.Uint32(data[off:])))
			} else {
				seg.ASes = append(seg.ASes, ASN(binary.BigEndian.Uint16(data[off:])))
			}
		}
		data = data[need:]
	}
	return nil
}

// parseAttributesInto decodes the path-attributes block of an UPDATE into
// a, which must arrive reset (see resetForParse) so retained slice
// capacity is reused instead of reallocated.
func parseAttributesInto(data []byte, as4 bool, a *PathAttributes) error {
	for len(data) > 0 {
		if len(data) < 3 {
			return fmt.Errorf("%w: truncated attribute header", ErrBadAttribute)
		}
		flags := data[0]
		typ := data[1]
		var alen, hdr int
		if flags&flagExtLen != 0 {
			if len(data) < 4 {
				return fmt.Errorf("%w: truncated extended length", ErrBadAttribute)
			}
			alen = int(binary.BigEndian.Uint16(data[2:4]))
			hdr = 4
		} else {
			alen = int(data[2])
			hdr = 3
		}
		if len(data) < hdr+alen {
			return fmt.Errorf("%w: attribute %d needs %d bytes, have %d", ErrBadAttribute, typ, hdr+alen, len(data))
		}
		val := data[hdr : hdr+alen]
		switch typ {
		case AttrOrigin:
			if alen != 1 || val[0] > OriginIncomplete {
				return fmt.Errorf("%w: ORIGIN", ErrBadAttribute)
			}
			a.Origin = int(val[0])
			a.HasOrigin = true
		case AttrASPath:
			if err := decodeASPathInto(&a.ASPath, val, as4); err != nil {
				return err
			}
			a.HasASPath = true
		case AttrNextHop:
			if alen != 4 {
				return fmt.Errorf("%w: NEXT_HOP length %d", ErrBadAttribute, alen)
			}
			a.NextHop = netip.AddrFrom4([4]byte(val))
		case AttrMED:
			if alen != 4 {
				return fmt.Errorf("%w: MED length %d", ErrBadAttribute, alen)
			}
			a.MED = binary.BigEndian.Uint32(val)
			a.HasMED = true
		case AttrLocalPref:
			if alen != 4 {
				return fmt.Errorf("%w: LOCAL_PREF length %d", ErrBadAttribute, alen)
			}
			a.LocalPref = binary.BigEndian.Uint32(val)
			a.HasLocalPref = true
		case AttrAtomicAggregate:
			if alen != 0 {
				return fmt.Errorf("%w: ATOMIC_AGGREGATE length %d", ErrBadAttribute, alen)
			}
			a.AtomicAggregate = true
		case AttrAggregator:
			want := 6
			if as4 {
				want = 8
			}
			if alen != want {
				return fmt.Errorf("%w: AGGREGATOR length %d, want %d", ErrBadAttribute, alen, want)
			}
			var agg Aggregator
			if as4 {
				agg.ASN = ASN(binary.BigEndian.Uint32(val))
				agg.Addr = netip.AddrFrom4([4]byte(val[4:8]))
			} else {
				agg.ASN = ASN(binary.BigEndian.Uint16(val))
				agg.Addr = netip.AddrFrom4([4]byte(val[2:6]))
			}
			a.Aggregator = &agg
		case AttrCommunities:
			if alen%4 != 0 {
				return fmt.Errorf("%w: COMMUNITIES length %d", ErrBadAttribute, alen)
			}
			for i := 0; i < alen; i += 4 {
				a.Communities = append(a.Communities, Community(binary.BigEndian.Uint32(val[i:])))
			}
		default:
			// Unknown optional attributes are tolerated (and dropped);
			// unknown well-known attributes are an error per RFC 4271.
			if flags&flagOptional == 0 {
				return fmt.Errorf("%w: unrecognised well-known attribute %d", ErrBadAttribute, typ)
			}
		}
		data = data[hdr+alen:]
	}
	return nil
}

// ParseUpdate decodes a full UPDATE message (header included). as4 must
// match the encoding negotiated on the session.
func ParseUpdate(data []byte, as4 bool) (*Update, error) {
	u := &Update{}
	if err := ParseUpdateInto(data, as4, u); err != nil {
		return nil, err
	}
	return u, nil
}

// resetForParse clears u for redecoding while retaining the capacity of
// its slices (withdrawn routes, NLRI, AS_PATH segments and their ASes,
// communities).
func (u *Update) resetForParse() {
	u.Withdrawn = u.Withdrawn[:0]
	u.NLRI = u.NLRI[:0]
	segs := u.Attrs.ASPath.Segments[:0]
	comms := u.Attrs.Communities[:0]
	u.Attrs = PathAttributes{}
	u.Attrs.ASPath.Segments = segs
	u.Attrs.Communities = comms
}

// ParseUpdateInto decodes a full UPDATE message (header included) into u,
// reusing u's retained slice capacity instead of allocating — the
// zero-copy entry point for batched session readers. The previous
// contents of u are invalidated; callers that keep path data across
// calls must copy it out first. Nothing in u aliases data after return,
// so data may be a reusable read buffer.
func ParseUpdateInto(data []byte, as4 bool, u *Update) error {
	msgType, msgLen, err := ParseHeader(data)
	if err != nil {
		return err
	}
	if msgType != TypeUpdate {
		return fmt.Errorf("bgp: message type %d is not UPDATE", msgType)
	}
	if len(data) < msgLen {
		return fmt.Errorf("%w: have %d of %d bytes", ErrShortMessage, len(data), msgLen)
	}
	body := data[HeaderLen:msgLen]
	if len(body) < 2 {
		return fmt.Errorf("%w: no withdrawn-routes length", ErrShortMessage)
	}
	wlen := int(binary.BigEndian.Uint16(body[:2]))
	if len(body) < 2+wlen+2 {
		return fmt.Errorf("%w: withdrawn routes overflow body", ErrShortMessage)
	}
	u.resetForParse()
	u.Withdrawn, err = appendPrefixes(u.Withdrawn, body[2:2+wlen])
	if err != nil {
		return err
	}
	alen := int(binary.BigEndian.Uint16(body[2+wlen : 4+wlen]))
	if len(body) < 4+wlen+alen {
		return fmt.Errorf("%w: attributes overflow body", ErrShortMessage)
	}
	if err := parseAttributesInto(body[4+wlen:4+wlen+alen], as4, &u.Attrs); err != nil {
		return err
	}
	u.NLRI, err = appendPrefixes(u.NLRI, body[4+wlen+alen:])
	return err
}

// ParseOpen decodes a full OPEN message (header included).
func ParseOpen(data []byte) (*Open, error) {
	msgType, msgLen, err := ParseHeader(data)
	if err != nil {
		return nil, err
	}
	if msgType != TypeOpen {
		return nil, fmt.Errorf("bgp: message type %d is not OPEN", msgType)
	}
	if len(data) < msgLen || msgLen < HeaderLen+10 {
		return nil, fmt.Errorf("%w: OPEN body", ErrShortMessage)
	}
	body := data[HeaderLen:msgLen]
	o := &Open{
		Version:  body[0],
		ASN:      ASN(binary.BigEndian.Uint16(body[1:3])),
		HoldTime: binary.BigEndian.Uint16(body[3:5]),
		BGPID:    netip.AddrFrom4([4]byte(body[5:9])),
	}
	optLen := int(body[9])
	if len(body) < 10+optLen {
		return nil, fmt.Errorf("%w: optional parameters", ErrShortMessage)
	}
	opt := body[10 : 10+optLen]
	for len(opt) > 0 {
		if len(opt) < 2 {
			return nil, fmt.Errorf("%w: truncated optional parameter", ErrShortMessage)
		}
		ptype, plen := opt[0], int(opt[1])
		if len(opt) < 2+plen {
			return nil, fmt.Errorf("%w: optional parameter overflows", ErrShortMessage)
		}
		if ptype == optParamCapability {
			caps := opt[2 : 2+plen]
			for len(caps) >= 2 {
				code, clen := caps[0], int(caps[1])
				if len(caps) < 2+clen {
					break
				}
				if code == capFourOctetAS && clen == 4 {
					o.AS4 = true
					o.ASN = ASN(binary.BigEndian.Uint32(caps[2:6]))
				}
				caps = caps[2+clen:]
			}
		}
		opt = opt[2+plen:]
	}
	return o, nil
}

// ParseNotification decodes a full NOTIFICATION message (header included).
func ParseNotification(data []byte) (*Notification, error) {
	msgType, msgLen, err := ParseHeader(data)
	if err != nil {
		return nil, err
	}
	if msgType != TypeNotification {
		return nil, fmt.Errorf("bgp: message type %d is not NOTIFICATION", msgType)
	}
	if len(data) < msgLen || msgLen < HeaderLen+2 {
		return nil, fmt.Errorf("%w: NOTIFICATION body", ErrShortMessage)
	}
	body := data[HeaderLen:msgLen]
	n := &Notification{Code: body[0], Subcode: body[1]}
	if len(body) > 2 {
		n.Data = append([]byte(nil), body[2:]...)
	}
	return n, nil
}
