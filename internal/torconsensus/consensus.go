// Package torconsensus models Tor network-status consensus documents: the
// relay list Tor clients download from directory servers and use for path
// selection.
//
// The document format is a faithful subset of the dir-spec v3 consensus
// ("r", "s", "w", "p" lines with the standard header and footer), enough
// that real tooling conventions apply: flags decide guard/exit roles and
// the "w Bandwidth=" weight drives bandwidth-proportional relay selection.
// A deterministic generator (see generate.go) synthesizes a consensus
// matching the population the paper measured in July 2014.
package torconsensus

import (
	"bufio"
	"encoding/base64"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"
	"time"
)

// Flag is a relay status flag bitmask.
type Flag uint16

// Relay flags from dir-spec §3.4.1 (the subset the analyses use).
const (
	FlagAuthority Flag = 1 << iota
	FlagBadExit
	FlagExit
	FlagFast
	FlagGuard
	FlagHSDir
	FlagRunning
	FlagStable
	FlagV2Dir
	FlagValid
)

var flagNames = []struct {
	f    Flag
	name string
}{
	{FlagAuthority, "Authority"},
	{FlagBadExit, "BadExit"},
	{FlagExit, "Exit"},
	{FlagFast, "Fast"},
	{FlagGuard, "Guard"},
	{FlagHSDir, "HSDir"},
	{FlagRunning, "Running"},
	{FlagStable, "Stable"},
	{FlagV2Dir, "V2Dir"},
	{FlagValid, "Valid"},
}

// ParseFlag returns the Flag for a dir-spec flag name.
func ParseFlag(name string) (Flag, bool) {
	for _, fn := range flagNames {
		if fn.name == name {
			return fn.f, true
		}
	}
	return 0, false
}

// String renders the flag set in dir-spec order.
func (f Flag) String() string {
	var parts []string
	for _, fn := range flagNames {
		if f&fn.f != 0 {
			parts = append(parts, fn.name)
		}
	}
	return strings.Join(parts, " ")
}

// Relay is one router entry of a consensus.
type Relay struct {
	Nickname  string
	Identity  string // base64 fingerprint, no padding
	Digest    string // base64 descriptor digest, no padding
	Published time.Time
	Addr      netip.Addr
	ORPort    uint16
	DirPort   uint16
	Flags     Flag
	Bandwidth uint64 // consensus weight from "w Bandwidth=", in kilobytes/s
	// ExitPolicy is the port summary from the "p" line, e.g.
	// "accept 80,443" or "reject 1-65535".
	ExitPolicy string
}

// HasFlag reports whether the relay carries flag f.
func (r *Relay) HasFlag(f Flag) bool { return r.Flags&f != 0 }

// IsGuard reports whether the relay is usable as an entry guard (Guard +
// Running + Valid).
func (r *Relay) IsGuard() bool {
	return r.HasFlag(FlagGuard) && r.HasFlag(FlagRunning) && r.HasFlag(FlagValid)
}

// IsExit reports whether the relay is usable as an exit (Exit + Running +
// Valid and not BadExit).
func (r *Relay) IsExit() bool {
	return r.HasFlag(FlagExit) && r.HasFlag(FlagRunning) && r.HasFlag(FlagValid) && !r.HasFlag(FlagBadExit)
}

// AllowsPort reports whether the relay's exit-policy summary admits
// exiting to the given port. An empty policy rejects everything.
func (r *Relay) AllowsPort(port uint16) bool {
	fields := strings.Fields(r.ExitPolicy)
	if len(fields) != 2 {
		return false
	}
	verdict := fields[0] == "accept"
	for _, span := range strings.Split(fields[1], ",") {
		lo, hi, ok := parsePortSpan(span)
		if !ok {
			return false
		}
		if port >= lo && port <= hi {
			return verdict
		}
	}
	return !verdict
}

func parsePortSpan(s string) (lo, hi uint16, ok bool) {
	if i := strings.IndexByte(s, '-'); i >= 0 {
		l, err1 := strconv.ParseUint(s[:i], 10, 16)
		h, err2 := strconv.ParseUint(s[i+1:], 10, 16)
		if err1 != nil || err2 != nil || l > h {
			return 0, 0, false
		}
		return uint16(l), uint16(h), true
	}
	v, err := strconv.ParseUint(s, 10, 16)
	if err != nil {
		return 0, 0, false
	}
	return uint16(v), uint16(v), true
}

// Consensus is a network-status consensus document.
type Consensus struct {
	ValidAfter time.Time
	FreshUntil time.Time
	ValidUntil time.Time
	Relays     []Relay
}

// Guards returns pointers to every relay usable as a guard.
func (c *Consensus) Guards() []*Relay { return c.filter((*Relay).IsGuard) }

// Exits returns pointers to every relay usable as an exit.
func (c *Consensus) Exits() []*Relay { return c.filter((*Relay).IsExit) }

// Running returns pointers to every Running+Valid relay.
func (c *Consensus) Running() []*Relay {
	return c.filter(func(r *Relay) bool { return r.HasFlag(FlagRunning) && r.HasFlag(FlagValid) })
}

func (c *Consensus) filter(pred func(*Relay) bool) []*Relay {
	var out []*Relay
	for i := range c.Relays {
		if pred(&c.Relays[i]) {
			out = append(out, &c.Relays[i])
		}
	}
	return out
}

const timeLayout = "2006-01-02 15:04:05"

// WriteTo serialises the consensus in dir-spec text form.
func (c *Consensus) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "network-status-version 3\n")
	fmt.Fprintf(&b, "vote-status consensus\n")
	fmt.Fprintf(&b, "valid-after %s\n", c.ValidAfter.UTC().Format(timeLayout))
	fmt.Fprintf(&b, "fresh-until %s\n", c.FreshUntil.UTC().Format(timeLayout))
	fmt.Fprintf(&b, "valid-until %s\n", c.ValidUntil.UTC().Format(timeLayout))
	for i := range c.Relays {
		r := &c.Relays[i]
		fmt.Fprintf(&b, "r %s %s %s %s %s %d %d\n",
			r.Nickname, r.Identity, r.Digest,
			r.Published.UTC().Format(timeLayout), r.Addr, r.ORPort, r.DirPort)
		fmt.Fprintf(&b, "s %s\n", r.Flags)
		fmt.Fprintf(&b, "w Bandwidth=%d\n", r.Bandwidth)
		if r.ExitPolicy != "" {
			fmt.Fprintf(&b, "p %s\n", r.ExitPolicy)
		}
	}
	fmt.Fprintf(&b, "directory-footer\n")
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Parse reads a consensus in the format produced by WriteTo. Unknown
// keyword lines are skipped, matching how Tor tolerates consensus
// extensions; malformed known lines are errors.
func Parse(rd io.Reader) (*Consensus, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	c := &Consensus{}
	var cur *Relay
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		fail := func(msg string) error {
			return fmt.Errorf("torconsensus: line %d: %s: %q", lineNo, msg, line)
		}
		switch fields[0] {
		case "network-status-version":
			if len(fields) < 2 || fields[1] != "3" {
				return nil, fail("unsupported version")
			}
		case "valid-after", "fresh-until", "valid-until":
			if len(fields) != 3 {
				return nil, fail("bad time line")
			}
			ts, err := time.Parse(timeLayout, fields[1]+" "+fields[2])
			if err != nil {
				return nil, fail(err.Error())
			}
			switch fields[0] {
			case "valid-after":
				c.ValidAfter = ts
			case "fresh-until":
				c.FreshUntil = ts
			default:
				c.ValidUntil = ts
			}
		case "r":
			if len(fields) != 9 {
				return nil, fail("r line needs 9 fields")
			}
			pub, err := time.Parse(timeLayout, fields[4]+" "+fields[5])
			if err != nil {
				return nil, fail("bad published time")
			}
			addr, err := netip.ParseAddr(fields[6])
			if err != nil {
				return nil, fail("bad address")
			}
			orPort, err1 := strconv.ParseUint(fields[7], 10, 16)
			dirPort, err2 := strconv.ParseUint(fields[8], 10, 16)
			if err1 != nil || err2 != nil {
				return nil, fail("bad port")
			}
			c.Relays = append(c.Relays, Relay{
				Nickname: fields[1], Identity: fields[2], Digest: fields[3],
				Published: pub, Addr: addr,
				ORPort: uint16(orPort), DirPort: uint16(dirPort),
			})
			cur = &c.Relays[len(c.Relays)-1]
		case "s":
			if cur == nil {
				return nil, fail("s line before any r line")
			}
			for _, name := range fields[1:] {
				f, ok := ParseFlag(name)
				if !ok {
					return nil, fail("unknown flag " + name)
				}
				cur.Flags |= f
			}
		case "w":
			if cur == nil {
				return nil, fail("w line before any r line")
			}
			for _, kv := range fields[1:] {
				if !strings.HasPrefix(kv, "Bandwidth=") {
					continue
				}
				bw, err := strconv.ParseUint(strings.TrimPrefix(kv, "Bandwidth="), 10, 64)
				if err != nil {
					return nil, fail("bad bandwidth")
				}
				cur.Bandwidth = bw
			}
		case "p":
			if cur == nil {
				return nil, fail("p line before any r line")
			}
			cur.ExitPolicy = strings.Join(fields[1:], " ")
		case "vote-status", "directory-footer":
			// recognised, nothing to record
		default:
			// Unknown keyword: tolerated.
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(c.Relays) == 0 {
		return nil, fmt.Errorf("torconsensus: no relays in document")
	}
	return c, nil
}

// Fingerprint renders a synthetic base64 identity for seeded generation.
func Fingerprint(b []byte) string {
	return base64.RawStdEncoding.EncodeToString(b)
}
