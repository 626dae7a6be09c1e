package export

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

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

// TestAppendJSONStringMatchesEncodingJSON pins the escaping table
// against json.Marshal for the full tricky-byte spectrum.
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
