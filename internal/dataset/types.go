// Package dataset defines the paper's data model: web-based software
// download events represented as 5-tuples (file, machine, process, URL,
// timestamp), the metadata attached to files and processes, the label
// taxonomy used for ground truth, and the malware behaviour-type
// vocabulary. It also provides an indexed in-memory event store that the
// measurement analytics query.
package dataset

import (
	"fmt"
	"time"
)

// FileHash uniquely identifies a software file (downloaded file or
// downloading process executable), standing in for the file hash of the
// real telemetry.
type FileHash string

// MachineID is the anonymized global unique machine identifier assigned
// by the vendor's software agent.
type MachineID string

// Label is the ground-truth label assigned to a file, process or URL
// after consulting all available sources (Section II-B).
type Label int

// Label values. Unknown is deliberately the zero value: a file with no
// ground truth whatsoever is unknown.
const (
	LabelUnknown Label = iota
	LabelBenign
	LabelLikelyBenign
	LabelMalicious
	LabelLikelyMalicious
)

// String returns the lowercase label name used in reports.
func (l Label) String() string {
	switch l {
	case LabelUnknown:
		return "unknown"
	case LabelBenign:
		return "benign"
	case LabelLikelyBenign:
		return "likely benign"
	case LabelMalicious:
		return "malicious"
	case LabelLikelyMalicious:
		return "likely malicious"
	default:
		return fmt.Sprintf("label(%d)", int(l))
	}
}

// MalwareType is the behaviour type of a malicious file (Section II-C,
// Table II).
type MalwareType int

// Behaviour types, ordered roughly from generic to specific; Specificity
// (the AVType tie-break rule) is defined separately in typeSpecificity.
const (
	TypeUndefined MalwareType = iota
	TypeTrojan
	TypeDropper
	TypePUP
	TypeAdware
	TypeBanker
	TypeBot
	TypeFakeAV
	TypeRansomware
	TypeWorm
	TypeSpyware
)

// AllMalwareTypes lists every behaviour type in report order (Table II
// order: most common first, then undefined last in some tables; here we
// keep declaration order and let reports sort).
var AllMalwareTypes = []MalwareType{
	TypeDropper, TypePUP, TypeAdware, TypeTrojan, TypeBanker, TypeBot,
	TypeFakeAV, TypeRansomware, TypeWorm, TypeSpyware, TypeUndefined,
}

// String returns the lowercase type keyword used in AV label maps and
// reports.
func (t MalwareType) String() string {
	switch t {
	case TypeUndefined:
		return "undefined"
	case TypeTrojan:
		return "trojan"
	case TypeDropper:
		return "dropper"
	case TypePUP:
		return "pup"
	case TypeAdware:
		return "adware"
	case TypeBanker:
		return "banker"
	case TypeBot:
		return "bot"
	case TypeFakeAV:
		return "fakeav"
	case TypeRansomware:
		return "ransomware"
	case TypeWorm:
		return "worm"
	case TypeSpyware:
		return "spyware"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// ParseMalwareType maps a type keyword back to its MalwareType.
func ParseMalwareType(s string) (MalwareType, error) {
	for _, t := range AllMalwareTypes {
		if t.String() == s {
			return t, nil
		}
	}
	return TypeUndefined, fmt.Errorf("dataset: unknown malware type %q", s)
}

// ProcessCategory is the broad class of a downloading process
// (Section V-A): browsers, Windows system processes, Java runtime,
// Acrobat Reader, and everything else.
type ProcessCategory int

// Process categories.
const (
	CategoryOther ProcessCategory = iota
	CategoryBrowser
	CategoryWindows
	CategoryJava
	CategoryAcrobat
)

// AllProcessCategories lists the categories in Table X report order.
var AllProcessCategories = []ProcessCategory{
	CategoryBrowser, CategoryWindows, CategoryJava, CategoryAcrobat, CategoryOther,
}

// String returns the human-readable category name.
func (c ProcessCategory) String() string {
	switch c {
	case CategoryBrowser:
		return "browser"
	case CategoryWindows:
		return "windows"
	case CategoryJava:
		return "java"
	case CategoryAcrobat:
		return "acrobat reader"
	case CategoryOther:
		return "other"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// Browser identifies a specific web browser product (Table XI).
type Browser int

// Browsers tracked individually by the study.
const (
	BrowserNone Browser = iota
	BrowserFirefox
	BrowserChrome
	BrowserOpera
	BrowserSafari
	BrowserIE
)

// AllBrowsers lists the browsers in Table XI order.
var AllBrowsers = []Browser{
	BrowserFirefox, BrowserChrome, BrowserOpera, BrowserSafari, BrowserIE,
}

// String returns the browser product name.
func (b Browser) String() string {
	switch b {
	case BrowserNone:
		return "none"
	case BrowserFirefox:
		return "Firefox"
	case BrowserChrome:
		return "Chrome"
	case BrowserOpera:
		return "Opera"
	case BrowserSafari:
		return "Safari"
	case BrowserIE:
		return "IE"
	default:
		return fmt.Sprintf("browser(%d)", int(b))
	}
}

// FileMeta carries the static metadata the vendor's infrastructure
// gathers for every file, including signing and packing information
// (Section IV-C). Processes are files too, so the same struct describes
// downloading processes.
type FileMeta struct {
	Hash   FileHash
	Size   int64
	Path   string // anonymized on-disk path, including file name
	Signer string // software signer subject; empty if unsigned
	CA     string // certification authority in the chain; empty if unsigned
	Packer string // packer product; empty if not packed

	// Process-related fields; zero values for plain downloaded files.
	Category ProcessCategory
	Browser  Browser
}

// Signed reports whether the file carries a (valid) software signature.
func (f *FileMeta) Signed() bool { return f.Signer != "" }

// Packed reports whether a known packer processed the file.
func (f *FileMeta) Packed() bool { return f.Packer != "" }

// DownloadEvent is the paper's 5-tuple (f, m, p, u, t): file f downloaded
// by machine m via process p from URL u at time t. Executed records
// whether the file was subsequently run on the machine; the collection
// server only keeps executed downloads.
type DownloadEvent struct {
	File     FileHash
	Machine  MachineID
	Process  FileHash
	URL      string
	Domain   string // effective 2LD of URL, precomputed
	Time     time.Time
	Executed bool
}

// Validate checks structural invariants of an event.
func (e *DownloadEvent) Validate() error {
	switch {
	case e.File == "":
		return fmt.Errorf("dataset: event has empty file hash")
	case e.Machine == "":
		return fmt.Errorf("dataset: event has empty machine id")
	case e.Process == "":
		return fmt.Errorf("dataset: event has empty process hash")
	case e.URL == "":
		return fmt.Errorf("dataset: event has empty URL")
	case e.Time.IsZero():
		return fmt.Errorf("dataset: event has zero timestamp")
	}
	return nil
}

// GroundTruth is the full label assignment produced by the labeling
// pipeline for one file: its label, and for malicious files the
// behaviour type and family derived from AV labels.
type GroundTruth struct {
	Label  Label
	Type   MalwareType
	Family string // AVclass-style family; "SINGLETON" style empty when underivable
}

// URLVerdict is the label assigned to a download URL (Section II-B).
type URLVerdict int

// URL verdicts.
const (
	URLUnknown URLVerdict = iota
	URLBenign
	URLMalicious
)

// String returns the verdict name.
func (v URLVerdict) String() string {
	switch v {
	case URLUnknown:
		return "unknown"
	case URLBenign:
		return "benign"
	case URLMalicious:
		return "malicious"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}
