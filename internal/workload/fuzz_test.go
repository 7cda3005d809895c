package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzFirewallInvoke checks the firewall tolerates arbitrary payloads:
// it must either return ErrBadPayload or exactly json.Marshal of the
// decision Decide reaches, never panic. AppendInvoke must append the
// same bytes (assertAppends).
func FuzzFirewallInvoke(f *testing.F) {
	f.Add([]byte(`{"srcIp":"10.0.0.1","dstPort":443}`))
	f.Add([]byte(`{"srcIp":"not-an-ip"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`garbage`))
	f.Add([]byte(`{"srcIp":"::1","dstPort":0}`))
	f.Add([]byte(`{"srcIp":"192.168.1.1","dstPort":443}`))
	f.Add([]byte(`{"srcIp":"8.8.8.8","dstPort":53}`))
	fw := DefaultFirewall()
	f.Fuzz(func(t *testing.T, payload []byte) {
		out, err := fw.Invoke(payload)
		if err != nil {
			if !errors.Is(err, ErrBadPayload) {
				t.Fatalf("error %v does not wrap ErrBadPayload", err)
			}
			return
		}
		var req FirewallRequest
		if jerr := json.Unmarshal(payload, &req); jerr != nil {
			t.Fatalf("invoke accepted a payload json.Unmarshal rejects: %v", jerr)
		}
		dec, derr := fw.Decide(req)
		if derr != nil {
			t.Fatalf("invoke succeeded where Decide fails: %v", derr)
		}
		assertMarshalled(t, out, dec)
		assertAppends(t, fw, payload, dec)
	})
}

// FuzzNATInvoke checks the NAT tolerates arbitrary payloads and that a
// successful invoke is exactly json.Marshal of the translated header,
// including the escaping of an echoed address, and that AppendInvoke
// appends the same bytes (assertAppends).
func FuzzNATInvoke(f *testing.F) {
	f.Add([]byte(`{"dstIp":"203.0.113.10","dstPort":80}`))
	f.Add([]byte(`{"dstIp":""}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"dstIp":"1.2.3.4","dstPort":65535}`))
	f.Add([]byte(`{"dstIp":"a<b","dstPort":1}`))
	f.Add([]byte(`{"dstIp":"a>b","dstPort":1}`))
	f.Add([]byte(`{"dstIp":"a&b","dstPort":2}`))
	f.Add([]byte(`{"dstIp":"say \"hi\"","dstPort":3}`))
	f.Add([]byte(`{"dstIp":"back\\slash","dstPort":3}`))
	f.Add([]byte(`{"dstIp":"two words","dstPort":4}`))
	f.Add([]byte(`{"dstIp":"bell\u0007","dstPort":5}`))
	f.Add([]byte("{\"dstIp\":\"bad\xff\xfeutf8\",\"dstPort\":6}"))
	f.Add([]byte(`{"dstIp":"sep\u2028","dstPort":7}`))
	nat := DefaultNAT()
	f.Fuzz(func(t *testing.T, payload []byte) {
		out, err := nat.Invoke(payload)
		if err != nil {
			if !errors.Is(err, ErrBadPayload) {
				t.Fatalf("error %v does not wrap ErrBadPayload", err)
			}
			return
		}
		var pkt NATPacket
		if jerr := json.Unmarshal(payload, &pkt); jerr != nil {
			t.Fatalf("invoke accepted a payload json.Unmarshal rejects: %v", jerr)
		}
		res := nat.Translate(pkt)
		assertMarshalled(t, out, res)
		assertAppends(t, nat, payload, res)
	})
}

// assertAppends appends app's result for payload behind a junk prefix,
// once into a buffer with spare room and once into one without. The
// prefix must survive and the appended bytes must be json.Marshal(want).
// With room, the result must be written in place and no spare byte
// past it touched; without, the buffer must grow to exactly its new
// length.
func assertAppends(t *testing.T, app Appender, payload []byte, want any) {
	t.Helper()
	const guard = 0x5A
	prefix := []byte(`junk{"prefix":[`)
	wantLen := len(prefix) + len(mustMarshal(want))
	for _, spare := range []int{wantLen - len(prefix) + 9, 0} {
		dst := make([]byte, len(prefix), len(prefix)+spare)
		copy(dst, prefix)
		room := dst[len(dst):cap(dst)]
		for i := range room {
			room[i] = guard
		}
		got, err := app.AppendInvoke(dst, payload)
		if err != nil {
			t.Fatalf("AppendInvoke failed where Invoke succeeded: %v", err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("append clobbered the prefix: got %q, want %q", got[:len(prefix)], prefix)
		}
		assertMarshalled(t, got[len(prefix):], want)
		if spare == 0 {
			if len(got) != cap(got) {
				t.Fatalf("grown append buffer has len %d, cap %d; want an exact-size buffer", len(got), cap(got))
			}
			continue
		}
		if &got[0] != &dst[0] {
			t.Fatal("append with room reallocated")
		}
		for i, b := range got[len(got):cap(got)] {
			if b != guard {
				t.Fatalf("spare byte %d past the appended result was written (%#x)", i, b)
			}
		}
	}
}

// FuzzScanInvoke checks the hand-written scan encoder against
// json.Marshal of the reference IndexesAbove result, over arrays from
// any seed and any threshold, and that Invoke's output is exact-size.
// It also appends the same result behind a random prefix into a buffer
// with a random amount of spare capacity: the prefix must survive, the
// appended bytes must match the reference, nothing past them may be
// written, and a buffer without room must grow to exactly its new length.
func FuzzScanInvoke(f *testing.F) {
	f.Add(int64(1), 5000, []byte(nil), uint16(0))
	f.Add(int64(7), 9000, []byte("prefix"), uint16(9000))
	f.Add(int64(42), -1, []byte("{"), uint16(15000)) // below every element: all 3000 indexes
	f.Add(int64(42), 10000, []byte("]"), uint16(22)) // above every element: "indexes":[]
	f.Add(int64(-3), 9990, []byte("ab"), uint16(3))
	f.Fuzz(func(t *testing.T, seed int64, threshold int, prefix []byte, spare uint16) {
		s := NewScan(seed)
		payload, err := json.Marshal(ScanRequest{Threshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Invoke(payload)
		if err != nil {
			t.Fatal(err)
		}
		idx := s.IndexesAbove(threshold)
		want := ScanResult{Indexes: idx, Count: len(idx)}
		assertMarshalled(t, out, want)
		if len(out) != cap(out) {
			t.Fatalf("invoke output has len %d, cap %d; want an exact-size buffer", len(out), cap(out))
		}

		const guard = 0x5A
		dst := make([]byte, len(prefix), len(prefix)+int(spare))
		copy(dst, prefix)
		room := dst[len(dst):cap(dst)]
		for i := range room {
			room[i] = guard
		}
		got, err := s.AppendInvoke(dst, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("append clobbered the prefix: got %q, want %q", got[:len(prefix)], prefix)
		}
		assertMarshalled(t, got[len(prefix):], want)
		if int(spare) >= len(out) {
			for i, b := range got[len(got):cap(got)] {
				if b != guard {
					t.Fatalf("spare byte %d past the appended result was written (%#x)", i, b)
				}
			}
		} else if len(got) != cap(got) {
			t.Fatalf("grown append buffer has len %d, cap %d; want an exact-size buffer", len(got), cap(got))
		}
	})
}

// assertMarshalled fails unless out is byte-identical to json.Marshal(v).
func assertMarshalled(t *testing.T, out []byte, v any) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("invoke output differs from json.Marshal:\n got %q\nwant %q", out, want)
	}
}

// FuzzThumbnailInvoke checks the thumbnail generator rejects hostile
// dimensions without panicking or allocating unboundedly.
func FuzzThumbnailInvoke(f *testing.F) {
	f.Add([]byte(`{"object":"a","width":64,"height":64,"edge":16}`))
	f.Add([]byte(`{"object":"a","width":-1,"height":64,"edge":16}`))
	f.Add([]byte(`{"object":"a","width":1000000,"height":1000000,"edge":1}`))
	th := NewThumbnail()
	f.Fuzz(func(t *testing.T, payload []byte) {
		var req ThumbnailRequest
		if json.Unmarshal(payload, &req) == nil && (req.Width > 2048 || req.Height > 2048) {
			return // keep the fuzz loop fast; large-but-valid images are slow, not buggy
		}
		out, err := th.Invoke(payload)
		if err != nil {
			return
		}
		var res ThumbnailResult
		if jerr := json.Unmarshal(out, &res); jerr != nil {
			t.Fatalf("successful invoke produced unparsable output: %v", jerr)
		}
	})
}
