package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// The verdict-line fast codec's contract mirrors export's: the append
// encoder must produce json.Marshal's bytes, and the fast parser must
// never accept a line with a different meaning than encoding/json gives
// it.

func fuzzVerdictFrom(typ, file, verdict, errStr string, gen uint64, rules []byte) VerdictRecord {
	v := VerdictRecord{Type: typ, File: file, Verdict: verdict, Generation: gen, Error: errStr}
	for _, b := range rules {
		v.Rules = append(v.Rules, int(int8(b)))
	}
	return v
}

// FuzzVerdictLineCodec: encode differentially, then re-parse the
// canonical bytes and compare against json.Unmarshal.
func FuzzVerdictLineCodec(f *testing.F) {
	f.Add("verdict", "aa01", "malicious", "", uint64(3), []byte{1, 2, 200})
	f.Add("verdict", "f", "none", "no metadata for file", uint64(1), []byte{})
	f.Add("", "", "", "", uint64(0), []byte{0})
	f.Add("verdict", "esc\"ape", "ben\nign", "дом<>&", ^uint64(0), []byte{255, 127})
	f.Fuzz(func(t *testing.T, typ, file, verdict, errStr string, gen uint64, rules []byte) {
		v := fuzzVerdictFrom(typ, file, verdict, errStr, gen, rules)
		want, err := json.Marshal(&v)
		if err != nil {
			t.Fatal(err)
		}
		got := appendVerdictLine(nil, &v)
		if !bytes.Equal(want, got) {
			t.Fatalf("bytes differ:\n json: %q\n fast: %q", want, got)
		}

		back, ok := parseVerdictLine(string(want))
		var ref VerdictRecord
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		if ok && !reflect.DeepEqual(back, ref) {
			t.Fatalf("fast parse differs:\n fast: %+v\n json: %+v", back, ref)
		}

		// The body renderer is just lines + '\n'.
		body := appendVerdictBody(nil, []VerdictRecord{v, v})
		wantBody := append(append(append([]byte{}, want...), '\n'), append(want, '\n')...)
		if !bytes.Equal(body, wantBody) {
			t.Fatalf("body differs:\n fast: %q\n want: %q", body, wantBody)
		}
	})
}

// FuzzParseVerdictLineRaw: on arbitrary bytes the fast parser may punt
// (ok=false) but must never disagree with encoding/json when it
// accepts.
func FuzzParseVerdictLineRaw(f *testing.F) {
	f.Add(`{"type":"verdict","file":"aa","verdict":"benign","gen":2,"rules":[0,3],"error":"x"}`)
	f.Add(`{"type":"verdict","file":"aa","verdict":"benign","gen":2}`)
	f.Add(`{"gen":1,"type":"verdict"}`)
	f.Add(`{"type":"verdict","file":"a","verdict":"none","gen":18446744073709551615}`)
	f.Add(`{"type":"verdict","file":"a","verdict":"none","gen":1,"rules":[-4]}`)
	// Each byte export's word kernel classifies, at every offset of two
	// words' worth of file name: in every lane, either side of a word
	// boundary.
	for _, b := range []byte{'"', '\\', '<', '>', '&', 0x1f, 0x7f, 0x80, 0xff} {
		for off := 0; off < 16; off++ {
			file := "0123456789abcdef"[:off] + string([]byte{b}) + "0123456789abcdef"[off:]
			f.Add(`{"type":"verdict","file":"` + file + `","verdict":"benign","gen":2}`)
		}
	}
	f.Fuzz(func(t *testing.T, line string) {
		got, ok := parseVerdictLine(line)
		if !ok {
			return
		}
		var want VerdictRecord
		if err := json.Unmarshal([]byte(line), &want); err != nil {
			t.Fatalf("fast parser accepted %q but json rejects it: %v", line, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parse differs on %q:\n fast: %+v\n json: %+v", line, got, want)
		}
	})
}

// TestVerdictKey pins Key()'s hand-rolled rendering to the fmt.Sprintf
// form the offline-equivalence tests were written against.
func TestVerdictKey(t *testing.T) {
	cases := []VerdictRecord{
		{File: "aa01", Verdict: "malicious", Rules: []int{0, 3, 17}},
		{File: "f", Verdict: "none", Rules: nil},
		{File: "f", Verdict: "benign", Rules: []int{}},
		{File: "", Verdict: "", Rules: []int{-2, 1000000}},
		{File: "x y", Verdict: "rejected", Rules: []int{5}},
	}
	for _, v := range cases {
		want := fmt.Sprintf("%s %s %v", v.File, v.Verdict, v.Rules)
		if got := v.Key(); got != want {
			t.Errorf("Key() = %q, want %q", got, want)
		}
	}
}
