package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/journal"
)

// TestBinaryEventsMatchJSONCodec: a batch encoded binary and decoded
// back renders to exactly the canonical line-JSON the reference codec
// produces for the originals — the two wire formats carry the same
// records.
func TestBinaryEventsMatchJSONCodec(t *testing.T) {
	f := sharedFixture(t)
	events := append([]dataset.DownloadEvent(nil), f.replay[:32]...)
	// Edge shapes the synthetic corpus doesn't exercise: fractional
	// seconds, a non-UTC zone, no domain, executed set.
	events = append(events,
		dataset.DownloadEvent{
			File: "f-frac", Machine: "m1", Process: "p1", URL: "http://x/y",
			Domain: "x.example", Executed: true,
			Time: time.Unix(1700000000, 123456789).In(time.FixedZone("", 5*3600+30*60)),
		},
		dataset.DownloadEvent{
			File: "f-min", Machine: "m2", Process: "p2", URL: "http://z/",
			Time: time.Unix(1700000001, 0).In(time.FixedZone("", -7*3600)),
		},
	)
	enc := appendBinaryEvents(nil, events)
	dec, err := decodeBinaryEvents(string(enc))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(dec), len(events))
	}
	for i := range events {
		want, err := export.AppendEventLine(nil, &events[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := export.AppendEventLine(nil, &dec[i])
		if err != nil {
			t.Fatalf("event %d: decoded event fails the JSON codec: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("event %d renders differently after the binary round trip:\n got %s\nwant %s", i, got, want)
		}
	}
	// Re-encoding the decoded batch is byte-identical: the encoder is
	// canonical, so retransmits don't depend on who rendered the bytes.
	if again := appendBinaryEvents(nil, dec); !bytes.Equal(again, enc) {
		t.Fatal("binary re-encode of the decoded batch diverged")
	}
}

// TestBinaryVerdictsMatchJSONCodec: verdict batches agree between the
// binary codec and the line-JSON reference, across every optional
// field combination.
func TestBinaryVerdictsMatchJSONCodec(t *testing.T) {
	verdicts := []VerdictRecord{
		{Type: "verdict", File: "aa11", Verdict: "benign", Generation: 1},
		{Type: "verdict", File: "bb22", Verdict: "malicious", Generation: 7, Rules: []int{3, 1, 2}},
		{Type: "verdict", File: "cc33", Verdict: "rejected", Generation: 2, Rules: []int{-1}},
		{Type: "verdict", File: "dd44", Verdict: "none", Generation: 9, Error: "no metadata for file"},
		{Type: "verdict", File: "", Verdict: "weird-value", Generation: 0, Rules: []int{0}, Error: "x"},
	}
	enc := appendBinaryVerdicts(nil, verdicts)
	dec, err := decodeBinaryVerdicts(string(enc))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, verdicts) {
		t.Fatalf("binary round trip changed the records:\n got %+v\nwant %+v", dec, verdicts)
	}
	// The JSON reference parses its own rendering to the same records
	// the binary codec carries.
	ref, err := parseVerdictBody(appendVerdictBody(nil, verdicts))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, dec) {
		t.Fatalf("JSON path decodes %+v, binary path %+v", ref, dec)
	}
}

// postClassify posts body to ts with the given content type and request
// ID, returning status, response content type and body.
func postClassify(t *testing.T, ts *httptest.Server, body []byte, contentType, id string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/classify", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if id != "" {
		req.Header.Set(RequestIDHeader, id)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), data
}

// TestBinaryClassifyNegotiation: a binary Content-Type on /classify
// selects the binary verdict response; the verdicts are identical to
// the JSON path's for the same events; retransmits are byte-identical
// even when the client switches formats between transmit and
// retransmit, because the ledger stores one canonical body.
func TestBinaryClassifyNegotiation(t *testing.T) {
	f := sharedFixture(t)
	dir := t.TempDir()
	l, _, err := OpenLedger(LedgerOptions{Journal: journal.Options{Dir: dir}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	engine := newTestEngine(t, f, EngineConfig{})
	srv, err := NewServer(engine, 0, WithLedger(l))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	events := f.replay[:8]
	jsonBody, err := marshalEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	binBody := appendBinaryEvents(nil, events)

	// Same events, both formats, no ID: verdicts must agree.
	code, ctype, jsonResp := postClassify(t, ts, jsonBody, "", "")
	if code != http.StatusOK {
		t.Fatalf("JSON classify = %d %s", code, jsonResp)
	}
	if ctype == ContentTypeBinaryVerdicts {
		t.Fatal("JSON request got a binary response")
	}
	code, ctype, binResp := postClassify(t, ts, binBody, ContentTypeBinaryEvents, "")
	if code != http.StatusOK {
		t.Fatalf("binary classify = %d %s", code, binResp)
	}
	if ctype != ContentTypeBinaryVerdicts {
		t.Fatalf("binary response Content-Type = %q, want %q", ctype, ContentTypeBinaryVerdicts)
	}
	jsonV, err := parseVerdictBody(jsonResp)
	if err != nil {
		t.Fatal(err)
	}
	binV, err := decodeBinaryVerdicts(string(binResp))
	if err != nil {
		t.Fatal(err)
	}
	if len(jsonV) != len(binV) {
		t.Fatalf("JSON path served %d verdicts, binary %d", len(jsonV), len(binV))
	}
	for i := range jsonV {
		if jsonV[i].Key() != binV[i].Key() {
			t.Fatalf("verdict %d: JSON %q, binary %q", i, jsonV[i].Key(), binV[i].Key())
		}
	}

	// Binary transmit, then retransmits in both formats: the binary
	// retransmit is byte-identical to the first binary response, and the
	// JSON retransmit re-renders the same stored body.
	code, _, first := postClassify(t, ts, binBody, ContentTypeBinaryEvents, "neg-1")
	if code != http.StatusOK {
		t.Fatalf("identified binary classify = %d %s", code, first)
	}
	code, ctype, again := postClassify(t, ts, binBody, ContentTypeBinaryEvents, "neg-1")
	if code != http.StatusOK || ctype != ContentTypeBinaryVerdicts {
		t.Fatalf("binary retransmit = %d, Content-Type %q", code, ctype)
	}
	if !bytes.Equal(again, first) {
		t.Fatal("binary retransmit is not byte-identical to the first response")
	}
	code, _, asJSON := postClassify(t, ts, jsonBody, "", "neg-1")
	if code != http.StatusOK {
		t.Fatalf("JSON retransmit = %d %s", code, asJSON)
	}
	fromStored, err := parseVerdictBody(asJSON)
	if err != nil {
		t.Fatal(err)
	}
	firstV, err := decodeBinaryVerdicts(string(first))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromStored, firstV) {
		t.Fatal("format-switched retransmit served different verdicts")
	}
	if hits := engine.Metrics().DedupHits.Load(); hits != 2 {
		t.Fatalf("DedupHits = %d, want 2 (both retransmits answered from the ledger)", hits)
	}

	// A malformed binary body is a 400, not an accepted batch.
	code, _, _ = postClassify(t, ts, binBody[:len(binBody)-3], ContentTypeBinaryEvents, "")
	if code != http.StatusBadRequest {
		t.Fatalf("truncated binary body = %d, want 400", code)
	}
}

// TestLedgerDedupAcrossShardCountChange: the exactly-once guarantee
// survives a -journal-shards change between restarts — results written
// under one shard count dedup retransmits after reopening under
// another (one shard → three → five).
func TestLedgerDedupAcrossShardCountChange(t *testing.T) {
	f := sharedFixture(t)
	engine := newTestEngine(t, f, EngineConfig{})
	events := f.replay[:5]
	verdicts, err := engine.ClassifyBatch(context.Background(), events)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// Generation 1: one shard.
	l1, _, err := OpenLedger(LedgerOptions{Journal: journal.Options{Dir: dir}, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := acceptEvents(l1, "cross-1", events); err != nil {
		t.Fatal(err)
	}
	if _, err := l1.Result("cross-1", verdicts); err != nil {
		t.Fatal(err)
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation 2: reopened striped over 3 shards. The one-shard history
	// must recover and keep deduplicating.
	l2, rec, err := OpenLedger(LedgerOptions{Journal: journal.Options{Dir: dir}, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Results != 1 {
		t.Fatalf("recovered %d results after shard-count change, want 1", rec.Results)
	}
	got, ok := l2.LookupVerdicts("cross-1")
	if !ok || len(got) != len(verdicts) {
		t.Fatalf("result lost across shard-count change: %v %v", got, ok)
	}
	for i := range got {
		if got[i].Key() != verdicts[i].Key() {
			t.Fatalf("verdict %d = %q across shard-count change, want %q", i, got[i].Key(), verdicts[i].Key())
		}
	}
	if err := acceptEvents(l2, "cross-1", events); err != nil {
		t.Fatal(err)
	}
	if l2.IsPending("cross-1") {
		t.Fatal("retransmit of a completed batch re-entered pending after shard-count change")
	}
	// New work lands sharded; widen again and everything must survive.
	if err := acceptEvents(l2, "cross-2", events); err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Result("cross-2", verdicts); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, rec3, err := OpenLedger(LedgerOptions{Journal: journal.Options{Dir: dir}, Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if rec3.Results != 2 {
		t.Fatalf("recovered %d results after widening again, want 2", rec3.Results)
	}
	for _, id := range []string{"cross-1", "cross-2"} {
		if _, ok := l3.LookupVerdicts(id); !ok {
			t.Fatalf("result %q lost after widening to 5 shards", id)
		}
		if err := acceptEvents(l3, id, events); err != nil {
			t.Fatal(err)
		}
		if l3.IsPending(id) {
			t.Fatalf("retransmit of %q re-entered pending at 5 shards", id)
		}
	}
}

// FuzzBinaryEvents holds the binary event codec equal to the line-JSON
// reference under arbitrary field values, and makes the decoder total
// over arbitrary bytes.
func FuzzBinaryEvents(f *testing.F) {
	f.Add(true, int64(1700000000), uint32(123456789), int32(330), "aa", "m1", "p1", "http://x/", "x.com")
	f.Add(false, int64(0), uint32(0), int32(0), "f", "m", "p", "u", "")
	f.Add(false, int64(-62135596800), uint32(1), int32(-1439), "f", "m", "p", "u", "d")
	f.Fuzz(func(t *testing.T, executed bool, sec int64, nanos uint32, zoffMin int32, file, machine, process, url, domain string) {
		loc := time.UTC
		if zoffMin != 0 && zoffMin > -24*60 && zoffMin < 24*60 {
			loc = time.FixedZone("", int(zoffMin)*60)
		}
		ev := dataset.DownloadEvent{
			File:     dataset.FileHash(file),
			Machine:  dataset.MachineID(machine),
			Process:  dataset.FileHash(process),
			URL:      url,
			Domain:   domain,
			Executed: executed,
			Time:     time.Unix(sec, int64(nanos%1e9)).In(loc),
		}
		enc := appendBinaryEvents(nil, []dataset.DownloadEvent{ev})
		dec, err := decodeBinaryEvents(string(enc))
		if err != nil {
			// The decoder applies the JSON path's strictness: anything it
			// refuses, the reference must refuse too (invalid event or
			// non-RFC 3339 time).
			if ev.Validate() == nil {
				if _, jerr := export.MarshalEventLine(&ev); jerr == nil {
					t.Fatalf("binary decoder rejected an event the JSON codec accepts: %v", err)
				}
			}
			return
		}
		if len(dec) != 1 {
			t.Fatalf("decoded %d events, want 1", len(dec))
		}
		// What the decoder accepts renders as an accept record: a batch
		// it took is never refused once deferred, after its 202.
		if _, err := appendEventLines(nil, dec); err != nil {
			t.Fatalf("decoded batch fails to render as accept lines: %v", err)
		}
		// Canonical re-encode is byte-identical.
		if again := appendBinaryEvents(nil, dec); !bytes.Equal(again, enc) {
			t.Fatal("binary re-encode diverged")
		}
		// Differential against the JSON reference, where the strings are
		// JSON-representable (invalid UTF-8 does not round-trip through
		// encoding/json by design).
		if utf8.ValidString(file) && utf8.ValidString(machine) && utf8.ValidString(process) &&
			utf8.ValidString(url) && utf8.ValidString(domain) {
			want, err := export.AppendEventLine(nil, &ev)
			if err != nil {
				t.Fatalf("binary decoder accepted an event the JSON codec refuses: %v", err)
			}
			got, err := export.AppendEventLine(nil, &dec[0])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("binary round trip changed the canonical rendering:\n got %s\nwant %s", got, want)
			}
			parsed, err := export.ParseEventLine(string(want))
			if err != nil {
				t.Fatal(err)
			}
			if rerendered := appendBinaryEvents(nil, []dataset.DownloadEvent{parsed}); !bytes.Equal(rerendered, enc) {
				t.Fatal("JSON-parsed event re-encodes to different binary bytes")
			}
		}
	})
}

// FuzzBinaryEventsDecode feeds arbitrary bytes to the binary event
// decoder: it must never panic, and anything it accepts must re-render
// through the canonical JSON codec and re-encode to a binary body it
// accepts again, identically — the same no-silent-loss property the
// journal fuzz enforces.
func FuzzBinaryEventsDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("lte1"))
	ev := dataset.DownloadEvent{File: "f", Machine: "m", Process: "p", URL: "u", Time: time.Unix(1700000000, 0).UTC()}
	valid := appendBinaryEvents(nil, []dataset.DownloadEvent{ev, ev})
	f.Add(valid)
	f.Add(valid[:len(valid)-2])
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0xff
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("bounded corpus: oversized input")
		}
		dec, err := decodeBinaryEvents(string(data))
		if err != nil {
			return
		}
		if _, err := appendEventLines(nil, dec); err != nil {
			t.Fatalf("accepted batch fails the JSON codec: %v", err)
		}
		enc := appendBinaryEvents(nil, dec)
		dec2, err := decodeBinaryEvents(string(enc))
		if err != nil {
			t.Fatalf("re-encoded accepted batch refused: %v", err)
		}
		if enc2 := appendBinaryEvents(nil, dec2); !bytes.Equal(enc2, enc) {
			t.Fatal("re-encode is not a fixed point")
		}
	})
}

// FuzzBinaryVerdicts holds the binary verdict codec equal to the
// line-JSON reference (appendVerdictBody/parseVerdictBody — the bytes
// the ledger journals) under arbitrary field values. A first binary
// reply is rendered from its verdicts and a retransmit from the
// journaled body: the two routes give the same bytes whenever
// respondStage takes the first (jsonExact).
func FuzzBinaryVerdicts(f *testing.F) {
	f.Add("verdict", "aa11", "malicious", uint64(3), int64(7), "", true)
	f.Add("verdict", "", "none", uint64(0), int64(-1), "extract failed", false)
	f.Fuzz(func(t *testing.T, typ, file, verdict string, gen uint64, rule int64, errMsg string, hasRule bool) {
		v := VerdictRecord{Type: typ, File: file, Verdict: canonicalVerdict(verdict), Generation: gen, Error: errMsg}
		if hasRule {
			v.Rules = []int{int(rule)}
		}
		verdicts := []VerdictRecord{v}
		enc := appendBinaryVerdicts(nil, verdicts)
		dec, err := decodeBinaryVerdicts(string(enc))
		if err != nil {
			t.Fatalf("canonical encoding refused: %v", err)
		}
		if len(dec) != 1 || dec[0].Key() != v.Key() || dec[0].Error != v.Error || dec[0].Type != v.Type {
			t.Fatalf("binary round trip changed the record: got %+v, want %+v", dec[0], v)
		}
		if !reflect.DeepEqual(dec[0].Rules, v.Rules) {
			t.Fatalf("rules changed: got %v, want %v", dec[0].Rules, v.Rules)
		}
		if again := appendBinaryVerdicts(nil, dec); !bytes.Equal(again, enc) {
			t.Fatal("binary re-encode diverged")
		}
		if jsonExact(verdicts) {
			stored, err := parseVerdictBody(appendVerdictBody(nil, verdicts))
			if err != nil {
				t.Fatalf("journaled body refused: %v", err)
			}
			if retransmit := appendBinaryVerdicts(nil, stored); !bytes.Equal(retransmit, enc) {
				t.Fatalf("a first reply and its retransmit differ:\n first %q\nretransmit %q", enc, retransmit)
			}
		}
		// Differential against the journaled JSON body, where the strings
		// are JSON-representable. int64 rules beyond the fast parser's
		// range fall back to encoding/json; both must agree regardless.
		if utf8.ValidString(typ) && utf8.ValidString(file) && utf8.ValidString(verdict) && utf8.ValidString(errMsg) &&
			int64(int(rule)) == rule {
			ref, err := parseVerdictBody(appendVerdictBody(nil, verdicts))
			if err != nil {
				t.Fatalf("JSON reference refused the record: %v", err)
			}
			if !reflect.DeepEqual(ref, dec) {
				t.Fatalf("JSON path decodes %+v, binary path %+v", ref, dec)
			}
		}
	})
}

// FuzzBinaryVerdictsDecode makes the binary verdict decoder total over
// arbitrary bytes, with accepted inputs re-encoding to a fixed point.
func FuzzBinaryVerdictsDecode(f *testing.F) {
	f.Add([]byte{})
	valid := appendBinaryVerdicts(nil, []VerdictRecord{
		{Type: "verdict", File: "aa", Verdict: "benign", Generation: 1, Rules: []int{2}},
		{Type: "verdict", File: "bb", Verdict: "none", Generation: 1, Error: "x"},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("bounded corpus: oversized input")
		}
		dec, err := decodeBinaryVerdicts(string(data))
		if err != nil {
			return
		}
		enc := appendBinaryVerdicts(nil, dec)
		dec2, err := decodeBinaryVerdicts(string(enc))
		if err != nil {
			t.Fatalf("re-encoded accepted batch refused: %v", err)
		}
		if !reflect.DeepEqual(dec2, dec) {
			t.Fatal("re-encode is not a fixed point")
		}
	})
}
