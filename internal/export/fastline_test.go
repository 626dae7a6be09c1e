package export

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/dataset"
)

// The fast line codec's contract is purely differential: AppendEventLine
// must produce MarshalEventLine's bytes and ParseEventLine must agree
// with UnmarshalEventLine — on every input, including the ones the fast
// path punts on.

func fuzzEventFrom(file, machine, process, url, domain string, sec int64, nsec int64, offMin int, executed bool) dataset.DownloadEvent {
	loc := time.UTC
	if offMin != 0 {
		loc = time.FixedZone("fz", offMin*60)
	}
	return dataset.DownloadEvent{
		File:    dataset.FileHash(file),
		Machine: dataset.MachineID(machine),
		Process: dataset.FileHash(process),
		URL:     url, Domain: domain,
		Time:     time.Unix(sec%4102444800, nsec%1e9).In(loc),
		Executed: executed,
	}
}

// FuzzEventLineCodec holds both fast functions equal to the
// encoding/json reference on arbitrary events.
func FuzzEventLineCodec(f *testing.F) {
	f.Add("aa01", "m-1", "bb02", "http://x.example/a", "x.example", int64(1609459200), int64(0), 0, true)
	f.Add("h\x80sh", "m\n1", "p\"q", "http://x/<>&", "дом.example", int64(1), int64(123456789), 330, false)
	f.Add("", "", "", "", "", int64(0), int64(0), 0, false)
	f.Add("a\u2028b", "m", "p", "u", "", int64(-62135596800), int64(1), -721, true)
	f.Fuzz(func(t *testing.T, file, machine, process, url, domain string, sec, nsec int64, offMin int, executed bool) {
		ev := fuzzEventFrom(file, machine, process, url, domain, sec, nsec, offMin%1440, executed)

		want, wantErr := MarshalEventLine(&ev)
		got, gotErr := AppendEventLine(nil, &ev)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error mismatch: marshal=%v append=%v", wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("bytes differ:\n json: %q\n fast: %q", want, got)
		}
		// Appending must respect existing prefixes.
		pre, err := AppendEventLine([]byte("xx"), &ev)
		if err != nil || !bytes.Equal(pre, append([]byte("xx"), want...)) {
			t.Fatalf("prefixed append differs: %q (err %v)", pre, err)
		}

		back, backErr := ParseEventLine(string(want))
		refBack, refErr := UnmarshalEventLine(want)
		if (backErr == nil) != (refErr == nil) {
			t.Fatalf("parse error mismatch: fast=%v ref=%v", backErr, refErr)
		}
		if backErr == nil && !back.Time.Equal(refBack.Time) {
			t.Fatalf("times differ: fast=%v ref=%v", back.Time, refBack.Time)
		}
		if backErr == nil {
			back.Time, refBack.Time = time.Time{}, time.Time{}
			if back != refBack {
				t.Fatalf("events differ:\n fast: %+v\n ref:  %+v", back, refBack)
			}
		}
	})
}

// FuzzParseEventLineRaw feeds arbitrary bytes: whenever the fast parser
// and the reference both accept, they must agree; the fast parser may
// never accept something the reference rejects.
func FuzzParseEventLineRaw(f *testing.F) {
	seed, _ := MarshalEventLine(&dataset.DownloadEvent{
		File: "aa", Machine: "m", Process: "bb", URL: "u",
		Domain: "d.example", Time: time.Unix(1609459200, 500).UTC(), Executed: true,
	})
	f.Add(string(seed))
	f.Add(`{"type":"event","file":"a","machine":"m","process":"p","url":"u","time":"2021-01-01T00:00:00Z","executed":false}`)
	f.Add(`{"type":"event","file":"a","machine":"m","process":"p","url":"u","time":"2021-1-1T0:0:0Z","executed":false}`)
	f.Add(`{"executed":true,"type":"event"}`)
	for _, line := range wordBoundaryLines(string(seed), `"url":"`) {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		got, gotErr := ParseEventLine(line)
		want, wantErr := UnmarshalEventLine([]byte(line))
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("acceptance mismatch on %q: fast=%v ref=%v", line, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if !got.Time.Equal(want.Time) {
			t.Fatalf("times differ on %q: fast=%v ref=%v", line, got.Time, want.Time)
		}
		got.Time, want.Time = time.Time{}, time.Time{}
		if got != want {
			t.Fatalf("events differ on %q:\n fast: %+v\n ref:  %+v", line, got, want)
		}
	})
}

// FuzzJSONStringEncoders holds the hand-rolled string encoder equal to
// encoding/json on arbitrary bytes.
func FuzzJSONStringEncoders(f *testing.F) {
	f.Add([]byte("plain"))
	f.Add([]byte("q\"q\\\n\x01\x80é <&>"))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, err := json.Marshal(string(data))
		if err != nil {
			t.Skip()
		}
		if got := AppendJSONString(nil, string(data)); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSONString(%q) = %q, want %q", data, got, want)
		}
	})
}

// TestAppendJSONStringMatchesEncodingJSON pins the escaping table
// against json.Marshal for the full tricky-byte spectrum.
func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"", "plain", `q"q`, `b\b`, "nl\n", "cr\r", "tab\t", "bs\b", "ff\f",
		"ctl\x01\x1f", "html<>&", "utf8 héllo дом 漢", "bad\x80utf8", "\xff\xfe",
		"sep\u2028and\u2029", "mix<\n\x02é\x80\u2029>",
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendJSONString(%q) = %q, want %q", s, got, want)
		}
	}
}

// laneBytes are the bytes the word kernels classify, one from each side
// of every boundary they draw: the two string delimiters, the three
// HTML escapes, the last control byte, DEL and 0x80 either side of the
// ASCII limit, and 0xff, whose low seven bits alone look plain.
var laneBytes = []byte{'"', '\\', '<', '>', '&', 0x1f, 0x7f, 0x80, 0xff}

// wordBoundaryLines returns line with each lane byte spliced in at each
// of the 16 offsets after the first occurrence of after — two words'
// worth, so the byte lands in every lane, and on both sides of a word
// boundary, wherever the kernel's words happen to start.
func wordBoundaryLines(line, after string) []string {
	at := strings.Index(line, after) + len(after)
	var out []string
	for _, b := range laneBytes {
		for off := 0; off < 16 && at+off <= len(line); off++ {
			out = append(out, line[:at+off]+string([]byte{b})+line[at+off:])
		}
	}
	return out
}

// scanPlainStringBytewise is ScanPlainString as it was before the word
// kernel: the byte loop alone, kept as the lane table's oracle.
func scanPlainStringBytewise(s string, i int) (val string, next int, ok bool) {
	if i >= len(s) || s[i] != '"' {
		return "", i, false
	}
	i++
	start := i
	for i < len(s) {
		b := s[i]
		if b == '"' {
			return s[start:i], i + 1, true
		}
		if b == '\\' || b < 0x20 || b >= utf8.RuneSelf {
			return "", i, false
		}
		i++
	}
	return "", i, false
}

// TestWordKernelLanes puts each lane byte at every offset 0-15 of
// strings of length 0-24 and holds ScanPlainString to the byte loop it
// replaced (result, stop index and all) and AppendJSONString to
// json.Marshal.
func TestWordKernelLanes(t *testing.T) {
	const filler = "abcdefghijklmnopqrstuvwx"
	for n := 0; n <= len(filler); n++ {
		cases := []string{filler[:n]}
		for _, b := range laneBytes {
			for off := 0; off < 16 && off < n; off++ {
				cases = append(cases, filler[:off]+string([]byte{b})+filler[off+1:n])
			}
		}
		for _, s := range cases {
			// Closed, closed with a tail behind it, and unterminated.
			for _, lit := range []string{`"` + s + `"`, `"` + s + `",` + filler, `"` + s} {
				val, next, ok := ScanPlainString(lit, 0)
				wantVal, wantNext, wantOK := scanPlainStringBytewise(lit, 0)
				if val != wantVal || next != wantNext || ok != wantOK {
					t.Errorf("ScanPlainString(%q) = %q, %d, %v; byte loop says %q, %d, %v",
						lit, val, next, ok, wantVal, wantNext, wantOK)
				}
			}
			want, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			if got := AppendJSONString(nil, s); !bytes.Equal(got, want) {
				t.Errorf("AppendJSONString(%q) = %q, want %q", s, got, want)
			}
		}
	}
}

// FuzzStampCodec pins the strict stamp codec to package time, which it
// stands in for. Reading: a string parseStampUTC accepts is one
// time.Parse accepts, yields the identical time.Time for (wall, ext and
// location alike, so == holds) and AppendFormat writes back byte for byte.
// Writing: for any instant in years 0-9999, appendStampUTC writes
// AppendFormat's bytes, and parseStampUTC reads them back.
func FuzzStampCodec(f *testing.F) {
	for _, s := range []string{
		"2021-01-01T00:00:00Z", "2021-01-01T00:00:00.5Z", "2021-12-31T23:59:59.999999999Z",
		"2000-02-29T12:00:00Z", "1900-02-29T12:00:00Z", "2024-02-29T12:00:00Z", "2023-02-29T12:00:00Z",
		"2021-04-31T00:00:00Z", "2021-01-01T00:00:60Z", "2021-01-01T24:00:00Z",
		"2021-01-01T00:00:00.000Z", "2021-01-01T00:00:00.10Z", "2021-01-01T00:00:00.1234567890Z",
		"2021-01-01T00:00:00.Z", "0000-01-01T00:00:00Z", "9999-12-31T23:59:59Z", "10000-01-01T00:00:00Z",
		"2021-01-01T00:00:00z", "2021-01-01t00:00:00Z", "2021-01-01T00:00:00+00:00",
		"2021-01-01T05:30:00+05:30", "2021-1-1T0:0:0Z", "2021-01-01 00:00:00Z", "", "Z",
	} {
		f.Add(s, int64(1609459200), int64(0))
	}
	f.Add("", int64(-62167219200), int64(1))         // 0000-01-01T00:00:00.000000001Z
	f.Add("", int64(253402300799), int64(999999999)) // the last instant of year 9999
	f.Add("", int64(951782400), int64(120000000))    // 2000-02-29, a fraction with trailing zeros
	f.Fuzz(func(t *testing.T, s string, sec, nsec int64) {
		if got, ok := parseStampUTC(s); ok {
			want, err := time.Parse(time.RFC3339Nano, s)
			if err != nil {
				t.Fatalf("parseStampUTC accepts %q, time.Parse does not: %v", s, err)
			}
			if got != want {
				t.Fatalf("parseStampUTC(%q) = %#v, time.Parse gives %#v", s, got, want)
			}
			if back := want.AppendFormat(nil, time.RFC3339Nano); string(back) != s {
				t.Fatalf("parseStampUTC accepts %q, which re-formats to %q", s, back)
			}
		}

		const year0, year10000 = -62167219200, 253402300800 // Unix seconds
		span := int64(year10000 - year0)
		ts := time.Unix(year0+(sec%span+span)%span, (nsec%1e9+1e9)%1e9).UTC()
		want := ts.AppendFormat([]byte("x"), time.RFC3339Nano)
		got := appendStampUTC([]byte("x"), ts)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendStampUTC(%v) = %q, AppendFormat gives %q", ts, got, want)
		}
		if back, ok := parseStampUTC(string(got[1:])); !ok || back != ts {
			t.Fatalf("parseStampUTC(%q) = %#v, %v; want %#v", got[1:], back, ok, ts)
		}
	})
}
