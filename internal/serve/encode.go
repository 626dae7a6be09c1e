package serve

import (
	"strconv"

	"repro/internal/export"
)

// This file is the verdict-record counterpart of export's fast line
// codec: appendVerdictLine produces exactly json.Marshal's bytes for a
// VerdictRecord, and parseVerdictLine inverts canonical lines by
// slicing substrings instead of copying fields. Both the HTTP response
// writer and the ledger's journaled response bodies go through
// appendVerdictLine, so dedup replays stay byte-identical to first
// responses by construction; encode_test.go holds the fast pair equal
// to the encoding/json reference differentially.

// appendVerdictLine appends v as one JSON object (no trailing newline),
// byte-identical to json.Marshal(&v): field order type, file, verdict,
// gen, then rules and error only when non-empty.
func appendVerdictLine(dst []byte, v *VerdictRecord) []byte {
	dst = append(dst, `{"type":`...)
	dst = export.AppendJSONString(dst, v.Type)
	dst = append(dst, `,"file":`...)
	dst = export.AppendJSONString(dst, v.File)
	dst = append(dst, `,"verdict":`...)
	dst = export.AppendJSONString(dst, v.Verdict)
	dst = append(dst, `,"gen":`...)
	dst = strconv.AppendUint(dst, v.Generation, 10)
	if len(v.Rules) > 0 {
		dst = append(dst, `,"rules":[`...)
		for i, r := range v.Rules {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(r), 10)
		}
		dst = append(dst, ']')
	}
	if v.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = export.AppendJSONString(dst, v.Error)
	}
	return append(dst, '}')
}

// appendVerdictBody renders the full line-JSON response body for a
// verdict slice — the one wire form shared by direct responses and the
// ledger's journaled bodies.
func appendVerdictBody(dst []byte, verdicts []VerdictRecord) []byte {
	for i := range verdicts {
		dst = appendVerdictLine(dst, &verdicts[i])
		dst = append(dst, '\n')
	}
	return dst
}

// verdictBodySize estimates the rendered size of a verdict body for
// buffer pre-sizing (generous; exactness doesn't matter).
func verdictBodySize(verdicts []VerdictRecord) int {
	n := 0
	for i := range verdicts {
		n += 64 + len(verdicts[i].File) + len(verdicts[i].Error) + 8*len(verdicts[i].Rules)
	}
	return n
}

// canonicalVerdict maps a verdict string to its canonical constant so
// parsed records don't retain the response body through tiny substrings.
func canonicalVerdict(s string) string {
	switch s {
	case "none":
		return "none"
	case "benign":
		return "benign"
	case "malicious":
		return "malicious"
	case "rejected":
		return "rejected"
	default:
		return s
	}
}

// scanUint scans a decimal uint64 at s[i], rejecting the leading zeros
// JSON forbids (and the canonical encoder never emits).
func scanUint(s string, i int) (uint64, int, bool) {
	start := i
	var n uint64
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		d := uint64(s[i] - '0')
		if n > (^uint64(0)-d)/10 {
			return 0, i, false
		}
		n = n*10 + d
		i++
	}
	if i == start || (s[start] == '0' && i-start > 1) {
		return 0, i, false
	}
	return n, i, true
}

// parseVerdictLine parses one canonical verdict line (the exact shape
// appendVerdictLine emits). ok=false means the line deviates — the
// caller falls back to encoding/json, which defines the semantics.
func parseVerdictLine(line string) (VerdictRecord, bool) {
	var v VerdictRecord
	i, ok := export.Literal(line, 0, `{"type":`)
	if !ok {
		return v, false
	}
	if v.Type, i, ok = export.ScanPlainString(line, i); !ok {
		return v, false
	}
	if i, ok = export.Literal(line, i, `,"file":`); !ok {
		return v, false
	}
	if v.File, i, ok = export.ScanPlainString(line, i); !ok {
		return v, false
	}
	if i, ok = export.Literal(line, i, `,"verdict":`); !ok {
		return v, false
	}
	var verdict string
	if verdict, i, ok = export.ScanPlainString(line, i); !ok {
		return v, false
	}
	v.Verdict = canonicalVerdict(verdict)
	if i, ok = export.Literal(line, i, `,"gen":`); !ok {
		return v, false
	}
	if v.Generation, i, ok = scanUint(line, i); !ok {
		return v, false
	}
	if j, hasRules := export.Literal(line, i, `,"rules":[`); hasRules {
		i = j
		for {
			neg := false
			if i < len(line) && line[i] == '-' {
				neg = true
				i++
			}
			var u uint64
			if u, i, ok = scanUint(line, i); !ok || u > 1<<31 {
				return v, false
			}
			r := int(u)
			if neg {
				r = -r
			}
			v.Rules = append(v.Rules, r)
			if i < len(line) && line[i] == ',' {
				i++
				continue
			}
			break
		}
		if i >= len(line) || line[i] != ']' {
			return v, false
		}
		i++
	}
	if j, hasErr := export.Literal(line, i, `,"error":`); hasErr {
		if v.Error, i, ok = export.ScanPlainString(line, j); !ok {
			return v, false
		}
	}
	if i, ok = export.Literal(line, i, "}"); !ok || i != len(line) {
		return v, false
	}
	return v, true
}
