package workload

import (
	"encoding/json"
	"fmt"
	"math"
)

// The uLL request types decode without reflection when the payload is
// in the exact compact form json.Marshal emits, the form every caller
// sends. The keys are exact and in struct order, with no whitespace:
//
//	{"threshold":N}
//	{"dstIp":"S","dstPort":P}
//	{"srcIp":"S","dstPort":P}
//
// N is a JSON integer of at most 18 digits with no leading zeros and
// not -0; P is 0–65535 with no sign; S holds only bytes 0x20–0x7E other
// than '"' and '\'. encoding/json decodes every such payload to the same
// value. Any other payload (case-folded or escaped keys, whitespace,
// extra or duplicate fields, 5e3, null, trailing bytes, …) goes to
// json.Unmarshal unchanged, so values and errors are exactly its own.
// Nothing is cached: every call parses its payload.

// decodeRequest decodes payload with parse when parse accepts it and
// with json.Unmarshal otherwise, wrapping json's error in ErrBadPayload.
func decodeRequest[T any](payload []byte, parse func([]byte) (T, bool)) (T, error) {
	if req, ok := parse(payload); ok {
		return req, nil
	}
	var req T
	if err := json.Unmarshal(payload, &req); err != nil {
		return req, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return req, nil
}

// parseScanRequest accepts exactly {"threshold":N}.
func parseScanRequest(b []byte) (ScanRequest, bool) {
	b, ok := cutLiteral(b, `{"threshold":`)
	if !ok {
		return ScanRequest{}, false
	}
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	v, b, ok := cutUint(b, 18)
	if !ok || string(b) != "}" || v > math.MaxInt || (neg && v == 0) {
		return ScanRequest{}, false
	}
	if neg {
		return ScanRequest{Threshold: -int(v)}, true
	}
	return ScanRequest{Threshold: int(v)}, true
}

// parseNATPacket accepts exactly {"dstIp":"S","dstPort":P}.
func parseNATPacket(b []byte) (NATPacket, bool) {
	ip, port, ok := parseIPPort(b, `{"dstIp":`)
	if !ok {
		return NATPacket{}, false
	}
	return NATPacket{DstIP: string(ip), DstPort: port}, true
}

// parseFirewallRequest accepts exactly {"srcIp":"S","dstPort":P}.
func parseFirewallRequest(b []byte) (FirewallRequest, bool) {
	ip, port, ok := parseIPPort(b, `{"srcIp":`)
	if !ok {
		return FirewallRequest{}, false
	}
	return FirewallRequest{SrcIP: string(ip), DstPort: port}, true
}

// parseIPPort accepts exactly head + `"S","dstPort":P}` and returns S's
// bytes, which alias b.
func parseIPPort(b []byte, head string) (ip []byte, port uint16, ok bool) {
	if b, ok = cutLiteral(b, head); !ok {
		return nil, 0, false
	}
	if ip, b, ok = cutString(b); !ok {
		return nil, 0, false
	}
	if b, ok = cutLiteral(b, `,"dstPort":`); !ok {
		return nil, 0, false
	}
	v, b, ok := cutUint(b, 5)
	if !ok || string(b) != "}" || v > math.MaxUint16 {
		return nil, 0, false
	}
	return ip, uint16(v), true
}

// cutLiteral reports whether b begins with lit and returns the rest.
func cutLiteral(b []byte, lit string) ([]byte, bool) {
	if len(b) < len(lit) || string(b[:len(lit)]) != lit {
		return nil, false
	}
	return b[len(lit):], true
}

// cutUint parses the unsigned JSON integer that begins b: "0", or a
// nonzero digit and at most maxDigits-1 more. The byte after it is left
// to the caller, which rejects a fraction or an exponent by requiring a
// delimiter there. maxDigits must be at most 19 so the value fits.
func cutUint(b []byte, maxDigits int) (v uint64, rest []byte, ok bool) {
	n := 0
	for n < len(b) && n <= maxDigits && '0' <= b[n] && b[n] <= '9' {
		v = v*10 + uint64(b[n]-'0')
		n++
	}
	if n == 0 || n > maxDigits || (b[0] == '0' && n > 1) {
		return 0, nil, false
	}
	return v, b[n:], true
}

// cutString parses the JSON string that begins b when it holds only
// bytes 0x20–0x7E other than '"' and '\', so it has no escapes and is
// valid UTF-8. It returns the text between the quotes and the rest.
func cutString(b []byte) (text, rest []byte, ok bool) {
	if len(b) == 0 || b[0] != '"' {
		return nil, nil, false
	}
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return b[1:i], b[i+1:], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, nil, false
		}
	}
	return nil, nil, false
}
