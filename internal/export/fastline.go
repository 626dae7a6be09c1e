package export

import (
	"time"
	"unicode/utf8"

	"repro/internal/dataset"
)

// This file is the allocation-free fast path for the single-record wire
// format the serving layer speaks: AppendEventLine produces exactly the
// bytes MarshalEventLine produces, and ParseEventLine inverts them with
// substring slicing instead of per-field copies. MarshalEventLine /
// UnmarshalEventLine remain the reference implementations; the
// differential tests in fastline_test.go hold the two pairs equal, and
// any input outside the fast path's strict-canonical shape falls back
// to the encoding/json path, so the fast functions can never disagree
// with the oracle — only skip ahead of it.

const hexDigits = "0123456789abcdef"

// jsonSafe reports whether byte b passes through encoding/json's
// string encoder unescaped (the HTML-escaping mode json.Marshal uses).
func jsonSafe(b byte) bool {
	return b >= 0x20 && b < utf8.RuneSelf &&
		b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

// AppendJSONString appends s as a JSON string literal (quotes included),
// byte-identical to encoding/json's default (HTML-escaping) encoder:
// two-character escapes for \" \\ \b \f \n \r \t, \u00xx for other
// control bytes and for < > &, the six-byte escape sequence \ufffd for
// each invalid UTF-8 byte, and U+2028/U+2029 escaped.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe(b) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	dst = append(dst, '"')
	return dst
}

// timeStrict reports whether t round-trips through time.Time's strict
// RFC 3339 JSON marshaling (year within [0,9999], whole-minute zone
// offset) — the preconditions under which AppendFormat(RFC3339Nano)
// produces exactly time.Time.MarshalJSON's bytes.
func timeStrict(t time.Time) bool {
	if y := t.Year(); y < 0 || y > 9999 {
		return false
	}
	_, off := t.Zone()
	return off%60 == 0
}

// AppendEventLine appends one "event" record (no trailing newline),
// byte-identical to MarshalEventLine. Events whose timestamp falls
// outside strict RFC 3339 take the MarshalEventLine path so errors stay
// identical too.
func AppendEventLine(dst []byte, e *dataset.DownloadEvent) ([]byte, error) {
	if e == nil || !timeStrict(e.Time) {
		line, err := MarshalEventLine(e)
		if err != nil {
			return dst, err
		}
		return append(dst, line...), nil
	}
	if err := e.Validate(); err != nil {
		return dst, err
	}
	dst = append(dst, `{"type":"event","file":`...)
	dst = AppendJSONString(dst, string(e.File))
	dst = append(dst, `,"machine":`...)
	dst = AppendJSONString(dst, string(e.Machine))
	dst = append(dst, `,"process":`...)
	dst = AppendJSONString(dst, string(e.Process))
	dst = append(dst, `,"url":`...)
	dst = AppendJSONString(dst, e.URL)
	if e.Domain != "" {
		dst = append(dst, `,"domain":`...)
		dst = AppendJSONString(dst, e.Domain)
	}
	dst = append(dst, `,"time":"`...)
	dst = e.Time.AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","executed":`...)
	if e.Executed {
		dst = append(dst, "true}"...)
	} else {
		dst = append(dst, "false}"...)
	}
	return dst, nil
}

// ScanPlainString scans a JSON string literal starting at s[i] (which
// must be the opening quote) containing only unescaped printable ASCII,
// returning the contents and the index past the closing quote. ok is
// false when the literal is absent, escaped, or non-ASCII — the caller
// falls back to the reference decoder. The serving layer's verdict-line
// fast path (internal/serve) scans with it too.
func ScanPlainString(s string, i int) (val string, next int, ok bool) {
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

// Literal matches lit at s[i], returning the index past it.
func Literal(s string, i int, lit string) (int, bool) {
	if len(s)-i < len(lit) || s[i:i+len(lit)] != lit {
		return i, false
	}
	return i + len(lit), true
}

// ParseEventLine parses one "event" record line into a DownloadEvent.
// Canonical lines — the exact field order and plain-ASCII strings
// AppendEventLine emits — are decoded by slicing substrings out of
// line, so the per-event cost is zero heap allocations beyond what the
// event itself retains. Anything else (re-ordered fields, escapes,
// non-ASCII, unknown fields) is delegated to UnmarshalEventLine, which
// defines the semantics.
func ParseEventLine(line string) (dataset.DownloadEvent, error) {
	ev, ok := parseEventFast(line)
	if !ok {
		return UnmarshalEventLine([]byte(line))
	}
	if err := ev.Validate(); err != nil {
		return dataset.DownloadEvent{}, err
	}
	return ev, nil
}

func parseEventFast(line string) (dataset.DownloadEvent, bool) {
	var ev dataset.DownloadEvent
	i, ok := Literal(line, 0, `{"type":"event","file":`)
	if !ok {
		return ev, false
	}
	var file, machine, process string
	if file, i, ok = ScanPlainString(line, i); !ok {
		return ev, false
	}
	if i, ok = Literal(line, i, `,"machine":`); !ok {
		return ev, false
	}
	if machine, i, ok = ScanPlainString(line, i); !ok {
		return ev, false
	}
	if i, ok = Literal(line, i, `,"process":`); !ok {
		return ev, false
	}
	if process, i, ok = ScanPlainString(line, i); !ok {
		return ev, false
	}
	if i, ok = Literal(line, i, `,"url":`); !ok {
		return ev, false
	}
	if ev.URL, i, ok = ScanPlainString(line, i); !ok {
		return ev, false
	}
	if j, isDomain := Literal(line, i, `,"domain":`); isDomain {
		if ev.Domain, i, ok = ScanPlainString(line, j); !ok {
			return ev, false
		}
	}
	if i, ok = Literal(line, i, `,"time":`); !ok {
		return ev, false
	}
	var stamp string
	if stamp, i, ok = ScanPlainString(line, i); !ok {
		return ev, false
	}
	// time.Parse takes the allocation-free parseRFC3339 fast path for
	// this layout, but is laxer than time.Time's strict JSON decoding
	// (it falls back to a lenient general parser), so only stamps that
	// re-format to the identical bytes are accepted here; anything else
	// goes to the reference decoder, which defines the semantics.
	t, err := time.Parse(time.RFC3339Nano, stamp)
	if err != nil {
		return ev, false
	}
	var buf [40]byte
	if string(t.AppendFormat(buf[:0], time.RFC3339Nano)) != stamp {
		return ev, false
	}
	ev.Time = t
	if i, ok = Literal(line, i, `,"executed":`); !ok {
		return ev, false
	}
	switch {
	case len(line)-i >= 5 && line[i:i+5] == "true}":
		ev.Executed, i = true, i+5
	case len(line)-i >= 6 && line[i:i+6] == "false}":
		ev.Executed, i = false, i+6
	default:
		return ev, false
	}
	if i != len(line) {
		return ev, false
	}
	ev.File = dataset.FileHash(file)
	ev.Machine = dataset.MachineID(machine)
	ev.Process = dataset.FileHash(process)
	return ev, true
}
