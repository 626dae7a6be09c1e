package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/dataset"
	"repro/internal/export"
)

// Compact binary wire format for /classify, negotiated via Content-Type
// alongside the line-JSON default. At provider-scale feed rates the
// line-JSON framing spends a meaningful fraction of each request on
// field names, quoting and RFC 3339 timestamps; the binary form carries
// the same records in length-prefixed little-endian frames, in the same
// hand-rolled codec style as export/fastline.go and encode.go.
//
// The format is wire-only: the journal, the handoff chunks and recovery
// speak exactly one format, so a client can switch formats between a
// transmit and its retransmit without splitting the dedup state. A
// binary request is rendered to canonical line-JSON only when its batch
// is deferred and its accept journaled (appendEventLines); a reply is
// journaled as canonical line-JSON and a binary one rendered straight
// from its verdicts. The JSON path remains the reference
// implementation — wire_test.go holds the two equal differentially,
// including under fuzz.
//
// Layout (everything little endian):
//
//	events body    "lte1" u32(count) count×event
//	event          u8(flags: 1=executed 2=has-domain)
//	               i64(unix seconds) u32(nanoseconds) i32(zone offset seconds)
//	               str(file) str(machine) str(process) str(url) [str(domain)]
//	verdicts body  "ltv1" u32(count) count×verdict
//	verdict        u8(flags: 1=has-rules 2=has-error)
//	               str(type) str(file) str(verdict) u64(gen)
//	               [u32(n) n×i64(rule)] [str(error)]
//	str            u32(len) len bytes
//
// Timestamps travel as seconds + nanoseconds + zone offset rather than
// a single UnixNano: the strict RFC 3339 range the JSON codec accepts
// (years 0..9999) overflows int64 nanoseconds, and the offset is what
// round-trips the rendered zone suffix byte-for-byte.
const (
	// ContentTypeBinaryEvents marks a /classify request body in the
	// binary event format; the response then uses the binary verdict
	// format. ContentTypeBinaryVerdicts is that response type, and the
	// Accept value that selects binary replies from GET /result.
	ContentTypeBinaryEvents   = "application/x-longtail-events"
	ContentTypeBinaryVerdicts = "application/x-longtail-verdicts"
)

const (
	binaryEventsMagic   = "lte1"
	binaryVerdictsMagic = "ltv1"

	flagExecuted  = 1
	flagHasDomain = 2
	flagHasRules  = 1
	flagHasError  = 2

	// maxBinaryString bounds one string field, mirroring maxEventLine on
	// the JSON path so a corrupt length cannot drive a huge allocation.
	maxBinaryString = maxEventLine
)

// appendBinString appends a length-prefixed string.
func appendBinString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// The reads decode from a string (the request body lands in one string;
// substrings slice out of it allocation-free, like the JSON fast path).

func binU32(s string, off int) uint32 {
	return uint32(s[off]) | uint32(s[off+1])<<8 | uint32(s[off+2])<<16 | uint32(s[off+3])<<24
}

func binU64(s string, off int) uint64 {
	return uint64(binU32(s, off)) | uint64(binU32(s, off+4))<<32
}

func readBinString(s string, off int) (string, int, error) {
	if len(s)-off < 4 {
		return "", off, fmt.Errorf("truncated string length")
	}
	n := int(binU32(s, off))
	off += 4
	if n > maxBinaryString || len(s)-off < n {
		return "", off, fmt.Errorf("string of %d bytes overruns body", n)
	}
	return s[off : off+n], off + n, nil
}

// appendBinaryEvent appends one event record.
func appendBinaryEvent(dst []byte, e *dataset.DownloadEvent) []byte {
	var flags byte
	if e.Executed {
		flags |= flagExecuted
	}
	if e.Domain != "" {
		flags |= flagHasDomain
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Time.Unix()))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Time.Nanosecond()))
	_, off := e.Time.Zone()
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(off)))
	dst = appendBinString(dst, string(e.File))
	dst = appendBinString(dst, string(e.Machine))
	dst = appendBinString(dst, string(e.Process))
	dst = appendBinString(dst, e.URL)
	if e.Domain != "" {
		dst = appendBinString(dst, e.Domain)
	}
	return dst
}

// appendBinaryEvents renders a whole batch in the binary event format.
func appendBinaryEvents(dst []byte, events []dataset.DownloadEvent) []byte {
	dst = append(dst, binaryEventsMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(events)))
	for i := range events {
		dst = appendBinaryEvent(dst, &events[i])
	}
	return dst
}

// minBinaryEvent is the smallest possible event record (empty strings,
// no domain): flags + time + four length prefixes.
const minBinaryEvent = 1 + 8 + 4 + 4 + 4*4

// decodeBinaryEvents decodes a binary /classify body. Every event is
// checked against the same strictness the JSON codec enforces — valid
// nanoseconds, a whole-minute zone offset within a day, a year within
// RFC 3339's range — so anything decoded here re-renders to canonical
// line-JSON without falling off export.AppendEventLine's fast path.
func decodeBinaryEvents(s string) ([]dataset.DownloadEvent, error) {
	if len(s) < 8 || s[:4] != binaryEventsMagic {
		return nil, fmt.Errorf("serve: binary events: missing %q header", binaryEventsMagic)
	}
	count := int(binU32(s, 4))
	off := 8
	if count > (len(s)-off)/minBinaryEvent {
		return nil, fmt.Errorf("serve: binary events: count %d overruns body", count)
	}
	events := make([]dataset.DownloadEvent, 0, count)
	for i := 0; i < count; i++ {
		if len(s)-off < minBinaryEvent {
			return nil, fmt.Errorf("serve: binary events: record %d truncated", i)
		}
		flags := s[off]
		off++
		sec := int64(binU64(s, off))
		off += 8
		nanos := binU32(s, off)
		off += 4
		zoff := int32(binU32(s, off))
		off += 4
		if nanos >= 1e9 {
			return nil, fmt.Errorf("serve: binary events: record %d: nanoseconds %d out of range", i, nanos)
		}
		if zoff%60 != 0 || zoff <= -24*3600 || zoff >= 24*3600 {
			return nil, fmt.Errorf("serve: binary events: record %d: zone offset %d not a whole minute within a day", i, zoff)
		}
		loc := time.UTC
		if zoff != 0 {
			loc = time.FixedZone("", int(zoff))
		}
		t := time.Unix(sec, int64(nanos)).In(loc)
		if y := t.Year(); y < 0 || y > 9999 {
			return nil, fmt.Errorf("serve: binary events: record %d: year %d outside RFC 3339", i, y)
		}
		var ev dataset.DownloadEvent
		ev.Time = t
		ev.Executed = flags&flagExecuted != 0
		var field string
		var err error
		if field, off, err = readBinString(s, off); err != nil {
			return nil, fmt.Errorf("serve: binary events: record %d file: %w", i, err)
		}
		ev.File = dataset.FileHash(field)
		if field, off, err = readBinString(s, off); err != nil {
			return nil, fmt.Errorf("serve: binary events: record %d machine: %w", i, err)
		}
		ev.Machine = dataset.MachineID(field)
		if field, off, err = readBinString(s, off); err != nil {
			return nil, fmt.Errorf("serve: binary events: record %d process: %w", i, err)
		}
		ev.Process = dataset.FileHash(field)
		if ev.URL, off, err = readBinString(s, off); err != nil {
			return nil, fmt.Errorf("serve: binary events: record %d url: %w", i, err)
		}
		if flags&flagHasDomain != 0 {
			if ev.Domain, off, err = readBinString(s, off); err != nil {
				return nil, fmt.Errorf("serve: binary events: record %d domain: %w", i, err)
			}
			if ev.Domain == "" {
				return nil, fmt.Errorf("serve: binary events: record %d: empty domain with domain flag set", i)
			}
		}
		if err := ev.Validate(); err != nil {
			return nil, fmt.Errorf("serve: binary events: record %d: %w", i, err)
		}
		events = append(events, ev)
	}
	if off != len(s) {
		return nil, fmt.Errorf("serve: binary events: %d trailing bytes", len(s)-off)
	}
	return events, nil
}

// appendEventLines renders events as '\n'-terminated canonical
// line-JSON, the body of an accept record. It does not fail on a batch
// decodeBinaryEvents accepted (FuzzBinaryEvents), so a binary batch
// refused at decode is the only one refused.
func appendEventLines(dst []byte, events []dataset.DownloadEvent) ([]byte, error) {
	for i := range events {
		var err error
		if dst, err = export.AppendEventLine(dst, &events[i]); err != nil {
			return nil, err
		}
		dst = append(dst, '\n')
	}
	return dst, nil
}

// jsonExact reports whether verdicts come back unchanged from their
// journaled line-JSON body: every string valid UTF-8, where the JSON
// encoder would replace bytes. Only then is a binary reply rendered from
// them the bytes a retransmit re-encodes from the ledger
// (FuzzBinaryVerdicts); a binary request's event may carry any bytes.
func jsonExact(verdicts []VerdictRecord) bool {
	for i := range verdicts {
		v := &verdicts[i]
		if !utf8.ValidString(v.Type) || !utf8.ValidString(v.File) || !utf8.ValidString(v.Verdict) || !utf8.ValidString(v.Error) {
			return false
		}
	}
	return true
}

// appendBinaryVerdicts renders a verdict slice in the binary verdict
// format — the binary counterpart of appendVerdictBody.
func appendBinaryVerdicts(dst []byte, verdicts []VerdictRecord) []byte {
	dst = append(dst, binaryVerdictsMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(verdicts)))
	for i := range verdicts {
		v := &verdicts[i]
		var flags byte
		if len(v.Rules) > 0 {
			flags |= flagHasRules
		}
		if v.Error != "" {
			flags |= flagHasError
		}
		dst = append(dst, flags)
		dst = appendBinString(dst, v.Type)
		dst = appendBinString(dst, v.File)
		dst = appendBinString(dst, v.Verdict)
		dst = binary.LittleEndian.AppendUint64(dst, v.Generation)
		if len(v.Rules) > 0 {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v.Rules)))
			for _, r := range v.Rules {
				dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(r)))
			}
		}
		if v.Error != "" {
			dst = appendBinString(dst, v.Error)
		}
	}
	return dst
}

// minBinaryVerdict is the smallest verdict record: flags + three length
// prefixes + generation.
const minBinaryVerdict = 1 + 3*4 + 8

// decodeBinaryVerdicts decodes a binary verdict body — what a client
// speaking the binary format runs on each response.
func decodeBinaryVerdicts(s string) ([]VerdictRecord, error) {
	if len(s) < 8 || s[:4] != binaryVerdictsMagic {
		return nil, fmt.Errorf("serve: binary verdicts: missing %q header", binaryVerdictsMagic)
	}
	count := int(binU32(s, 4))
	off := 8
	if count > (len(s)-off)/minBinaryVerdict {
		return nil, fmt.Errorf("serve: binary verdicts: count %d overruns body", count)
	}
	verdicts := make([]VerdictRecord, 0, count)
	for i := 0; i < count; i++ {
		if len(s)-off < minBinaryVerdict {
			return nil, fmt.Errorf("serve: binary verdicts: record %d truncated", i)
		}
		flags := s[off]
		off++
		var v VerdictRecord
		var err error
		if v.Type, off, err = readBinString(s, off); err != nil {
			return nil, fmt.Errorf("serve: binary verdicts: record %d type: %w", i, err)
		}
		if v.File, off, err = readBinString(s, off); err != nil {
			return nil, fmt.Errorf("serve: binary verdicts: record %d file: %w", i, err)
		}
		var verdict string
		if verdict, off, err = readBinString(s, off); err != nil {
			return nil, fmt.Errorf("serve: binary verdicts: record %d verdict: %w", i, err)
		}
		v.Verdict = canonicalVerdict(verdict)
		if len(s)-off < 8 {
			return nil, fmt.Errorf("serve: binary verdicts: record %d truncated", i)
		}
		v.Generation = binU64(s, off)
		off += 8
		if flags&flagHasRules != 0 {
			if len(s)-off < 4 {
				return nil, fmt.Errorf("serve: binary verdicts: record %d truncated", i)
			}
			n := int(binU32(s, off))
			off += 4
			if n == 0 || n > (len(s)-off)/8 {
				return nil, fmt.Errorf("serve: binary verdicts: record %d: rule count %d overruns body", i, n)
			}
			v.Rules = make([]int, n)
			for r := 0; r < n; r++ {
				v.Rules[r] = int(int64(binU64(s, off)))
				off += 8
			}
		}
		if flags&flagHasError != 0 {
			if v.Error, off, err = readBinString(s, off); err != nil {
				return nil, fmt.Errorf("serve: binary verdicts: record %d error: %w", i, err)
			}
			if v.Error == "" {
				return nil, fmt.Errorf("serve: binary verdicts: record %d: empty error with error flag set", i)
			}
		}
		verdicts = append(verdicts, v)
	}
	if off != len(s) {
		return nil, fmt.Errorf("serve: binary verdicts: %d trailing bytes", len(s)-off)
	}
	return verdicts, nil
}

// parseVerdictBody parses a line-JSON verdict body — a response off the
// wire, or one the ledger journaled — back into verdict records. For
// the ledger it is the bridge a binary-negotiated retransmit crosses
// (a first reply is rendered from its verdicts): one canonical JSON body
// is stored per ID and the binary reply is re-encoded from it
// deterministically, so binary retransmits are byte-identical too. The body converts to one string
// and canonical lines (the exact shape appendVerdictLine emits) decode
// by substring slicing; anything else falls back to encoding/json per
// line.
func parseVerdictBody(body []byte) ([]VerdictRecord, error) {
	s := string(body)
	verdicts := make([]VerdictRecord, 0, lineCapacity(s, minVerdictLine))
	for len(s) > 0 {
		line, rest, _ := strings.Cut(s, "\n")
		s = rest
		if line = strings.TrimSuffix(line, "\r"); line == "" {
			continue
		}
		v, ok := parseVerdictLine(line)
		if !ok {
			v = VerdictRecord{} // the fast path may have filled fields before giving up
			if err := json.Unmarshal([]byte(line), &v); err != nil {
				return nil, fmt.Errorf("serve: verdict body: %w", err)
			}
		}
		verdicts = append(verdicts, v)
	}
	return verdicts, nil
}
