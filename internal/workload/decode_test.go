package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// checkDecode checks one payload against json.Unmarshal. When parse
// accepts it, json.Unmarshal must succeed with an equal value and the
// payload must be the compact form json.Marshal gives that value (HTML
// escaping aside), so the direct decoder accepts nothing wider. Either
// way, decodeRequest must give json.Unmarshal's value and its error text
// behind ErrBadPayload.
func checkDecode[T comparable](t *testing.T, parse func([]byte) (T, bool), payload []byte) {
	t.Helper()
	var want T
	jerr := json.Unmarshal(payload, &want)
	if got, ok := parse(payload); ok {
		if jerr != nil {
			t.Fatalf("direct decoder accepts %q, which json.Unmarshal rejects: %v", payload, jerr)
		}
		if got != want {
			t.Fatalf("direct decoder reads %q as %+v, json.Unmarshal as %+v", payload, got, want)
		}
		if compact := compactJSON(t, got); !bytes.Equal(payload, compact) {
			t.Fatalf("direct decoder accepts %q, which is not the compact form %q", payload, compact)
		}
	}
	got, err := decodeRequest(payload, parse)
	if got != want {
		t.Fatalf("decode of %q gives %+v, json.Unmarshal %+v", payload, got, want)
	}
	switch {
	case jerr == nil && err != nil:
		t.Fatalf("decode of %q fails where json.Unmarshal succeeds: %v", payload, err)
	case jerr != nil && err == nil:
		t.Fatalf("decode of %q succeeds where json.Unmarshal fails: %v", payload, jerr)
	case jerr != nil && (!errors.Is(err, ErrBadPayload) || err.Error() != ErrBadPayload.Error()+": "+jerr.Error()):
		t.Fatalf("decode of %q fails with %q, want ErrBadPayload wrapping %q", payload, err, jerr)
	}
}

// compactJSON is json.Marshal of v without HTML escaping, which leaves
// '<', '>' and '&' as they are; the direct decoder reads those raw.
func compactJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// plainASCII reports whether json.Marshal writes s unescaped: bytes
// 0x20–0x7E other than '"', '\' and the HTML-escaped '<', '>' and '&'.
func plainASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || strings.IndexByte(`"\<>&`, c) >= 0 {
			return false
		}
	}
	return true
}

// mustAccept fails unless parse accepts json.Marshal of req as req.
func mustAccept[T comparable](t *testing.T, parse func([]byte) (T, bool), req T) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := parse(payload); !ok || got != req {
		t.Fatalf("direct decoder reads json.Marshal output %q as %+v, %v; want %+v, true", payload, got, ok, req)
	}
}

var (
	scanFallbacks = []string{
		`{ "threshold": 5000 }`,
		`{"threshold":5000}` + "\n",
		`{"THRESHOLD":5000}`,
		`{"Threshold":5000}`,
		`{"\u0074hreshold":5000}`,
		`{"threshold":5000,"extra":1}`,
		`{"threshold":1,"threshold":2}`,
		`{"threshold":5e3}`,
		`{"threshold":1.0}`,
		`{"threshold":-0}`,
		`{"threshold":1234567890123456789}`,
		`{"threshold":-1234567890123456789}`,
		`{"threshold":12345678901234567890}`,
		`{"threshold":007}`,
		`{"threshold":+5}`,
		`{"threshold":-}`,
		`{"threshold":}`,
		`{"threshold":null}`,
		`{"threshold":"5000"}`,
		`{"threshold":5000}x`,
		`{"threshold":5000}}`,
		`{"threshold":5000`,
		`null`,
		`[5000]`,
		`{}`,
		``,
	}
	natFallbacks = ipPortFallbacks("dstIp", `\u0064stIp`)
	fwFallbacks  = ipPortFallbacks("srcIp", `\u0073rcIp`)
)

// ipPortFallbacks lists payloads the direct decoder of the NAT or
// firewall request must hand to json.Unmarshal; key is the address key
// and escaped the same key with its first letter \u-escaped.
func ipPortFallbacks(key, escaped string) []string {
	r := strings.NewReplacer("KEY", key, "UPPER", strings.ToUpper(key), "ESC", escaped)
	var out []string
	for _, p := range []string{
		`{ "KEY": "10.0.0.1", "dstPort": 443 }`,
		`{"KEY":"10.0.0.1","dstPort":443}` + "\n",
		`{"UPPER":"10.0.0.1","dstPort":443}`,
		`{"ESC":"10.0.0.1","dstPort":443}`,
		`{"KEY":"10.0.0.1","DSTPORT":443}`,
		`{"KEY":"10.0.0.1","dstPort":443,"extra":1}`,
		`{"KEY":"10.0.0.1","KEY":"10.0.0.2","dstPort":443}`,
		`{"KEY":"10.0.0.1","dstPort":443,"dstPort":80}`,
		`{"dstPort":443,"KEY":"10.0.0.1"}`,
		`{"KEY":"10.0.0.1"}`,
		`{"KEY":"10.0.0.1","dstPort":4e2}`,
		`{"KEY":"10.0.0.1","dstPort":1.0}`,
		`{"KEY":"10.0.0.1","dstPort":-0}`,
		`{"KEY":"10.0.0.1","dstPort":-1}`,
		`{"KEY":"10.0.0.1","dstPort":1234567890123456789}`,
		`{"KEY":"10.0.0.1","dstPort":007}`,
		`{"KEY":"10.0.0.1","dstPort":65536}`,
		`{"KEY":"10.0.0.1","dstPort":"443"}`,
		`{"KEY":"10.0.0.1","dstPort":null}`,
		`{"KEY":null,"dstPort":443}`,
		`{"KEY":10,"dstPort":443}`,
		`{"KEY":"a\u003cb","dstPort":1}`,
		`{"KEY":"a\"b","dstPort":1}`,
		`{"KEY":"tab` + "\t" + `","dstPort":1}`,
		`{"KEY":"caf` + "\xc3\xa9" + `","dstPort":1}`,
		`{"KEY":"bad` + "\xff" + `","dstPort":1}`,
		`{"KEY":"10.0.0.1","dstPort":443}x`,
		`{"KEY":"10.0.0.1","dstPort":443`,
		`{"KEY":"10.0.0.1`,
		`null`,
		`[]`,
		`{}`,
		``,
	} {
		out = append(out, r.Replace(p))
	}
	return out
}

// TestDecodeFallback feeds each decoder payloads outside the compact
// form: the direct decoder must refuse every one, and the decode must
// give exactly json.Unmarshal's value and error.
func TestDecodeFallback(t *testing.T) {
	t.Run("scan", func(t *testing.T) { checkFallbacks(t, parseScanRequest, scanFallbacks) })
	t.Run("nat", func(t *testing.T) { checkFallbacks(t, parseNATPacket, natFallbacks) })
	t.Run("firewall", func(t *testing.T) { checkFallbacks(t, parseFirewallRequest, fwFallbacks) })
}

// checkFallbacks runs checkDecode on each payload after checking that
// parse refuses it.
func checkFallbacks[T comparable](t *testing.T, parse func([]byte) (T, bool), payloads []string) {
	for _, p := range payloads {
		if got, ok := parse([]byte(p)); ok {
			t.Errorf("direct decoder accepts %q as %+v; want a fallback to json.Unmarshal", p, got)
		}
		checkDecode(t, parse, []byte(p))
	}
}

// TestDecodeDirect checks the direct decoders accept json.Marshal's
// output at the edges of the accepted form.
func TestDecodeDirect(t *testing.T) {
	for _, v := range []int{0, 1, -1, 5000, 999_999_999_999_999_999, -999_999_999_999_999_999} {
		mustAccept(t, parseScanRequest, ScanRequest{Threshold: v})
	}
	for _, ip := range []string{"", "10.0.0.1", "::1", "two words", "~ !#$%'()*+,-./:;=?@[]^_`{|}"} {
		for _, port := range []uint16{0, 1, 80, 65535} {
			mustAccept(t, parseNATPacket, NATPacket{DstIP: ip, DstPort: port})
			mustAccept(t, parseFirewallRequest, FirewallRequest{SrcIP: ip, DstPort: port})
		}
	}
	// json.Marshal escapes '<', '>' and '&', but encoding/json reads them
	// raw as well, and so does the direct decoder.
	raw := []byte(`{"dstIp":"a<b>&c","dstPort":1}`)
	if _, ok := parseNATPacket(raw); !ok {
		t.Errorf("direct decoder refuses %q", raw)
	}
	checkDecode(t, parseNATPacket, raw)
}

// FuzzDecodeScanRequest checks the direct scan decoder on arbitrary
// bytes against json.Unmarshal, and that it accepts json.Marshal of any
// threshold of at most 18 digits.
func FuzzDecodeScanRequest(f *testing.F) {
	f.Add([]byte(`{"threshold":5000}`), 5000)
	f.Add([]byte(`{"threshold":-999999999999999999}`), 999_999_999_999_999_999)
	for _, p := range scanFallbacks {
		f.Add([]byte(p), -1)
	}
	f.Fuzz(func(t *testing.T, payload []byte, threshold int) {
		checkDecode(t, parseScanRequest, payload)
		if -1e18 < threshold && threshold < 1e18 {
			mustAccept(t, parseScanRequest, ScanRequest{Threshold: threshold})
		}
	})
}

// FuzzDecodeNATPacket checks the direct NAT decoder on arbitrary bytes
// against json.Unmarshal, and that it accepts json.Marshal of any packet
// whose address json.Marshal writes unescaped.
func FuzzDecodeNATPacket(f *testing.F) {
	f.Add([]byte(`{"dstIp":"203.0.113.10","dstPort":80}`), "203.0.113.10", uint16(80))
	for _, p := range natFallbacks {
		f.Add([]byte(p), "a<b", uint16(65535))
	}
	f.Fuzz(func(t *testing.T, payload []byte, ip string, port uint16) {
		checkDecode(t, parseNATPacket, payload)
		if plainASCII(ip) {
			mustAccept(t, parseNATPacket, NATPacket{DstIP: ip, DstPort: port})
		}
	})
}

// FuzzDecodeFirewallRequest checks the direct firewall decoder on
// arbitrary bytes against json.Unmarshal, and that it accepts
// json.Marshal of any request whose address json.Marshal writes
// unescaped.
func FuzzDecodeFirewallRequest(f *testing.F) {
	f.Add([]byte(`{"srcIp":"10.1.2.3","dstPort":443}`), "10.1.2.3", uint16(443))
	for _, p := range fwFallbacks {
		f.Add([]byte(p), "", uint16(0))
	}
	f.Fuzz(func(t *testing.T, payload []byte, ip string, port uint16) {
		checkDecode(t, parseFirewallRequest, payload)
		if plainASCII(ip) {
			mustAccept(t, parseFirewallRequest, FirewallRequest{SrcIP: ip, DstPort: port})
		}
	})
}
