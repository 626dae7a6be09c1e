package export

import (
	"math/bits"
	"time"
	"unicode/utf8"

	"repro/internal/dataset"
)

// This file is the allocation-free fast path for the single-record wire
// format the serving layer speaks: AppendEventLine produces exactly the
// bytes MarshalEventLine produces, and ParseEventLine inverts them with
// substring slicing instead of per-field copies, both reading strings
// a word at a time and time stamps without package time's layout
// machinery. MarshalEventLine / UnmarshalEventLine remain the reference
// implementations; the differential tests in fastline_test.go hold the
// two pairs equal, and any input outside the fast path's
// strict-canonical shape falls back to the encoding/json path, so the
// fast functions can never disagree with the oracle — only skip ahead
// of it.

const hexDigits = "0123456789abcdef"

// The string kernels below read eight bytes at a time (SWAR: the word's
// eight byte lanes are classified by one run of integer arithmetic).
// With t the word's low seven bits per lane, t+0x60 carries into a
// lane's top bit exactly when the lane is >= 0x20, and (t^c)+0x7f
// exactly when the lane differs from c; no sum exceeds 0xfe, so no
// carry crosses a lane and every lane is classified exactly.
const (
	lanes   = 0x0101010101010101
	laneTop = 0x80 * lanes
	laneLow = 0x7f * lanes
)

// load64 reads s[i:i+8] as a little-endian word; the compiler fuses the
// eight byte loads into one.
func load64(s string, i int) uint64 {
	_ = s[i+7]
	return uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
		uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
}

// notPlain sets the top bit of each lane of w that holds '"', '\\', a
// control byte below 0x20 or a byte at or above 0x80 — everything
// ScanPlainString stops at.
func notPlain(w uint64) uint64 {
	t := w & laneLow
	plain := (t + 0x60*lanes) & ((t ^ '"'*lanes) + laneLow) & ((t ^ '\\'*lanes) + laneLow)
	return (w | ^plain) & laneTop
}

// notSafe is notPlain plus the three bytes encoding/json's HTML mode
// escapes, '<' '>' '&': the lanes where jsonSafe is false. ('<' and '>'
// differ in one bit, so one comparison covers both.)
func notSafe(w uint64) uint64 {
	t := w & laneLow
	safe := (((t | 0x02*lanes) ^ '>'*lanes) + laneLow) & ((t ^ '&'*lanes) + laneLow)
	return notPlain(w) | ^safe&laneTop
}

// jsonSafe reports whether byte b passes through encoding/json's
// string encoder unescaped (the HTML-escaping mode json.Marshal uses).
func jsonSafe(b byte) bool {
	return b >= 0x20 && b < utf8.RuneSelf &&
		b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

// allSafe reports whether every byte of s is jsonSafe, a word at a
// time; the last word overlaps the one before it rather than leave a
// tail of single bytes.
func allSafe(s string) bool {
	if len(s) < 8 {
		for i := 0; i < len(s); i++ {
			if !jsonSafe(s[i]) {
				return false
			}
		}
		return true
	}
	for i := 0; i+8 < len(s); i += 8 {
		if notSafe(load64(s, i)) != 0 {
			return false
		}
	}
	return notSafe(load64(s, len(s)-8)) == 0
}

// AppendJSONString appends s as a JSON string literal (quotes included),
// byte-identical to encoding/json's default (HTML-escaping) encoder:
// two-character escapes for \" \\ \b \f \n \r \t, \u00xx for other
// control bytes and for < > &, the six-byte escape sequence \ufffd for
// each invalid UTF-8 byte, and U+2028/U+2029 escaped. A string with
// nothing to escape — every hash, URL and domain of ordinary traffic —
// is found so a word at a time and copied whole.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	if allSafe(s) {
		dst = append(dst, s...)
		return append(dst, '"')
	}
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

// strictOffset returns t's zone offset in seconds, and whether t
// round-trips through time.Time's strict RFC 3339 JSON marshaling (year
// within [0,9999], whole-minute zone offset) — the preconditions under
// which AppendFormat(RFC3339Nano) produces exactly
// time.Time.MarshalJSON's bytes.
func strictOffset(t time.Time) (off int, ok bool) {
	if y := t.Year(); y < 0 || y > 9999 {
		return 0, false
	}
	_, off = t.Zone()
	return off, off%60 == 0
}

// appendStampUTC appends t exactly as t.AppendFormat(dst,
// time.RFC3339Nano) does, for a t strictOffset passes with offset 0:
// YYYY-MM-DDTHH:MM:SS, the nanoseconds without their trailing zeros (or
// nothing), Z. parseStampUTC is its inverse.
func appendStampUTC(dst []byte, t time.Time) []byte {
	year, month, day := t.Date()
	hour, min, sec := t.Clock()
	dst = append2(append2(dst, year/100), year%100)
	dst = append2(append(dst, '-'), int(month))
	dst = append2(append(dst, '-'), day)
	dst = append2(append(dst, 'T'), hour)
	dst = append2(append(dst, ':'), min)
	dst = append2(append(dst, ':'), sec)
	if nsec := t.Nanosecond(); nsec != 0 {
		var frac [10]byte
		for k := 9; k > 0; k-- {
			frac[k] = byte('0' + nsec%10)
			nsec /= 10
		}
		frac[0] = '.'
		n := len(frac)
		for frac[n-1] == '0' {
			n--
		}
		dst = append(dst, frac[:n]...)
	}
	return append(dst, 'Z')
}

// append2 appends v, which is in [0,99], as two decimal digits.
func append2(dst []byte, v int) []byte {
	return append(dst, byte('0'+v/10), byte('0'+v%10))
}

// atoi2 reads the two decimal digits at s[i]; anything else reads as a
// value every range check in parseStampUTC refuses.
func atoi2(s string, i int) int {
	hi, lo := s[i]-'0', s[i+1]-'0'
	if hi > 9 || lo > 9 {
		return 1 << 20
	}
	return int(hi)*10 + int(lo)
}

var daysIn = [13]int{1: 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}

// parseStampUTC reads a time stamp of exactly the shape appendStampUTC
// writes — YYYY-MM-DDTHH:MM:SS[.f]Z with year 0000-9999, a date the
// calendar has, no second 60, and a fraction of one to nine digits that
// does not end in 0 — which is every stamp that time.Parse(RFC3339Nano)
// accepts as UTC and AppendFormat writes back unchanged. So the value
// is built directly, with no parse to re-format and compare. ok=false
// says only that s has another shape (an offset, lower-case t or z,
// +00:00, trailing zeros), not that it is invalid.
func parseStampUTC(s string) (t time.Time, ok bool) {
	if len(s) < 20 || len(s) > 30 || s[4] != '-' || s[7] != '-' || s[10] != 'T' ||
		s[13] != ':' || s[16] != ':' || s[len(s)-1] != 'Z' {
		return t, false
	}
	year := atoi2(s, 0)*100 + atoi2(s, 2)
	month, day := atoi2(s, 5), atoi2(s, 8)
	hour, min, sec := atoi2(s, 11), atoi2(s, 14), atoi2(s, 17)
	if year > 9999 || month < 1 || month > 12 || day < 1 || hour > 23 || min > 59 || sec > 59 {
		return t, false
	}
	days := daysIn[month]
	if month == 2 && year%4 == 0 && (year%100 != 0 || year%400 == 0) {
		days = 29
	}
	if day > days {
		return t, false
	}
	nsec := 0
	if frac := s[19 : len(s)-1]; frac != "" {
		if len(frac) < 2 || frac[0] != '.' || frac[len(frac)-1] == '0' {
			return t, false
		}
		for k := 1; k < len(frac); k++ {
			d := frac[k] - '0'
			if d > 9 {
				return t, false
			}
			nsec = nsec*10 + int(d)
		}
		for k := len(frac); k < 10; k++ {
			nsec *= 10
		}
	}
	return time.Date(year, time.Month(month), day, hour, min, sec, nsec, time.UTC), true
}

// AppendEventLine appends one "event" record (no trailing newline),
// byte-identical to MarshalEventLine. Events whose timestamp falls
// outside strict RFC 3339 take the MarshalEventLine path so errors stay
// identical too.
func AppendEventLine(dst []byte, e *dataset.DownloadEvent) ([]byte, error) {
	off, strict := 0, false
	if e != nil {
		off, strict = strictOffset(e.Time)
	}
	if !strict {
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
	if off == 0 {
		dst = appendStampUTC(dst, e.Time)
	} else {
		dst = e.Time.AppendFormat(dst, time.RFC3339Nano)
	}
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
// fast path (internal/serve) scans with it too. Whole words of plain
// bytes are stepped over eight at a time; the byte loop takes over at
// the first byte that is not plain, and so decides exactly as it would
// have alone.
func ScanPlainString(s string, i int) (val string, next int, ok bool) {
	if i >= len(s) || s[i] != '"' {
		return "", i, false
	}
	i++
	start := i
	for i+8 <= len(s) {
		if stop := notPlain(load64(s, i)); stop != 0 {
			i += bits.TrailingZeros64(stop) / 8
			break
		}
		i += 8
	}
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
	var ev dataset.DownloadEvent
	err := ParseEventLineInto(&ev, line)
	return ev, err
}

// ParseEventLineInto is ParseEventLine decoding into *ev — a slice slot,
// for a caller that parses a batch — so a canonical line's event is
// written once, where it will live, and never copied. On error *ev is
// the zero event.
func ParseEventLineInto(ev *dataset.DownloadEvent, line string) (err error) {
	if !parseEventFast(ev, line) {
		*ev, err = UnmarshalEventLine([]byte(line))
		return err
	}
	if err = ev.Validate(); err != nil {
		*ev = dataset.DownloadEvent{}
	}
	return err
}

// parseEventFast fills *ev from a canonical line. ok=false means the
// line deviates and *ev holds whatever was read up to there.
func parseEventFast(ev *dataset.DownloadEvent, line string) bool {
	i, ok := Literal(line, 0, `{"type":"event","file":`)
	if !ok {
		return false
	}
	var file, machine, process string
	if file, i, ok = ScanPlainString(line, i); !ok {
		return false
	}
	if i, ok = Literal(line, i, `,"machine":`); !ok {
		return false
	}
	if machine, i, ok = ScanPlainString(line, i); !ok {
		return false
	}
	if i, ok = Literal(line, i, `,"process":`); !ok {
		return false
	}
	if process, i, ok = ScanPlainString(line, i); !ok {
		return false
	}
	if i, ok = Literal(line, i, `,"url":`); !ok {
		return false
	}
	if ev.URL, i, ok = ScanPlainString(line, i); !ok {
		return false
	}
	ev.Domain = ""
	if j, isDomain := Literal(line, i, `,"domain":`); isDomain {
		if ev.Domain, i, ok = ScanPlainString(line, j); !ok {
			return false
		}
	}
	if i, ok = Literal(line, i, `,"time":`); !ok {
		return false
	}
	var stamp string
	if stamp, i, ok = ScanPlainString(line, i); !ok {
		return false
	}
	if ev.Time, ok = parseStampUTC(stamp); !ok {
		// A stamp of another shape. time.Parse takes its parseRFC3339
		// fast path for this layout, but is laxer than time.Time's strict
		// JSON decoding (it falls back to a lenient general parser), so
		// only stamps that re-format to the identical bytes are accepted
		// here; anything else goes to the reference decoder, which
		// defines the semantics.
		t, err := time.Parse(time.RFC3339Nano, stamp)
		if err != nil {
			return false
		}
		var buf [40]byte
		if string(t.AppendFormat(buf[:0], time.RFC3339Nano)) != stamp {
			return false
		}
		ev.Time = t
	}
	if i, ok = Literal(line, i, `,"executed":`); !ok {
		return false
	}
	switch {
	case len(line)-i >= 5 && line[i:i+5] == "true}":
		ev.Executed, i = true, i+5
	case len(line)-i >= 6 && line[i:i+6] == "false}":
		ev.Executed, i = false, i+6
	default:
		return false
	}
	if i != len(line) {
		return false
	}
	ev.File = dataset.FileHash(file)
	ev.Machine = dataset.MachineID(machine)
	ev.Process = dataset.FileHash(process)
	return true
}
