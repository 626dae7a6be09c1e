// Package avclass reimplements the core of AVclass (Sebastián et al.,
// RAID 2016), the massive malware labeling tool the paper uses to derive
// malware family names from noisy multi-engine AV labels (Section II-C,
// Figure 1).
//
// The pipeline follows the published design: per-label normalization and
// tokenization, filtering of generic and structural tokens, alias
// resolution, and a plurality vote across engines with a minimum support
// of two distinct engines. Samples with no token reaching support get no
// family — the paper reports AVclass fails to derive a family for 58% of
// its malicious samples.
package avclass

import (
	"sort"
	"strings"
)

// Labeler derives family names from AV label sets.
type Labeler struct {
	generic    map[string]struct{}
	aliases    map[string]string
	minSupport int
	minLen     int
}

// Option configures a Labeler.
type Option func(*Labeler)

// WithMinSupport overrides the minimum number of distinct engines that
// must agree on a token (default 2).
func WithMinSupport(n int) Option {
	return func(l *Labeler) {
		if n > 0 {
			l.minSupport = n
		}
	}
}

// WithAliases merges extra alias mappings (from → canonical).
func WithAliases(aliases map[string]string) Option {
	return func(l *Labeler) {
		for from, to := range aliases {
			l.aliases[strings.ToLower(from)] = strings.ToLower(to)
		}
	}
}

// NewLabeler builds a Labeler with the default generic-token and alias
// lists.
func NewLabeler(opts ...Option) *Labeler {
	l := &Labeler{
		generic:    make(map[string]struct{}, len(defaultGeneric)),
		aliases:    make(map[string]string, len(defaultAliases)),
		minSupport: 2,
		minLen:     4,
	}
	for _, t := range defaultGeneric {
		l.generic[t] = struct{}{}
	}
	for from, to := range defaultAliases {
		l.aliases[from] = to
	}
	for _, opt := range opts {
		opt(l)
	}
	return l
}

// defaultGeneric lists tokens that never identify a family: behaviour
// classes, platforms, packer hints, heuristic markers and grammar
// scaffolding, mirroring AVclass's generic token list.
var defaultGeneric = []string{
	"trojan", "troj", "virus", "worm", "malware", "generic", "gen",
	"agent", "application", "program", "unwanted", "potentially",
	"win32", "win64", "w32", "w64", "msil", "android", "linux", "osx",
	"downloader", "dldr", "dropper", "dropped", "injector", "backdoor",
	"bkdr", "adware", "adw", "spyware", "tspy", "spy", "ransom",
	"ransomware", "fakeav", "fakealert", "rogue", "fraudtool", "pws",
	"infostealer", "banker", "banload", "suspicious", "heuristic", "heur",
	"artemis", "variant", "behaveslike", "lookslike", "packed", "packer",
	"crypt", "cryptor", "obfuscated", "suspect", "riskware", "risktool",
	"hacktool", "keygen", "grayware", "pup", "pua", "not", "virus",
	"dangerousobject", "uds", "malicious", "trojware", "undef",
	"small", "tiny", "startpage", "proxy", "clicker", "autorun",
	"onlinegames", "gamethief", "security", "disabler", "blocker",
	"bundler", "bundled", "installer", "install", "setup", "softomate",
	"toolbar", "optional", "somoto2", "multi", "family",
}

// defaultAliases maps well-known family synonyms onto a canonical name,
// following AVclass's alias detection output.
var defaultAliases = map[string]string{
	"zeus":            "zbot",
	"zeusbot":         "zbot",
	"wsgame":          "zbot",
	"kryptik":         "zbot", // common heur alias in ground truth sets
	"sality":          "sality",
	"vobfus":          "vobfus",
	"changeup":        "vobfus",
	"vundo":           "vundo",
	"virut":           "virut",
	"virtob":          "virut",
	"fesber":          "firseria",
	"firser":          "firseria",
	"solimba":         "firseria",
	"somotoltd":       "somoto",
	"betterinstaller": "somoto",
	"installcore2":    "installcore",
	"outbrowse2":      "outbrowse",
	"cryptolock":      "cryptolocker",
	"cryptowall2":     "cryptowall",
}

// Result is the outcome of family derivation for one sample.
type Result struct {
	// Family is the derived family in lowercase, or "" when no token
	// reached the support threshold.
	Family string
	// Support is the number of distinct engines voting for Family.
	Support int
	// Tokens holds the surviving family-candidate tokens and their
	// engine support, for diagnostics.
	Tokens map[string]int
}

// HasFamily reports whether a family was derived.
func (r Result) HasFamily() bool { return r.Family != "" }

// Label derives the family for one sample given its engine→label map.
func (l *Labeler) Label(labels map[string]string) Result {
	support := make(map[string]int)
	for _, label := range labels {
		seen := make(map[string]struct{})
		for _, tok := range l.tokenize(label) {
			if _, dup := seen[tok]; dup {
				continue // count each token once per engine
			}
			seen[tok] = struct{}{}
			support[tok]++
		}
	}
	best := ""
	bestN := 0
	// Deterministic scan order: sort candidate tokens.
	tokens := make([]string, 0, len(support))
	for tok := range support {
		tokens = append(tokens, tok)
	}
	sort.Strings(tokens)
	for _, tok := range tokens {
		n := support[tok]
		if n > bestN {
			best, bestN = tok, n
		}
	}
	if bestN < l.minSupport {
		return Result{Tokens: support}
	}
	return Result{Family: best, Support: bestN, Tokens: support}
}

// tokenize normalizes one AV label into candidate family tokens.
func (l *Labeler) tokenize(label string) []string {
	lower := strings.ToLower(label)
	fields := strings.FieldsFunc(lower, func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9')
	})
	var out []string
	for _, f := range fields {
		f = strings.TrimFunc(f, func(r rune) bool { return r >= '0' && r <= '9' })
		if len(f) < l.minLen {
			continue
		}
		if canon, ok := l.aliases[f]; ok {
			f = canon
		}
		if _, g := l.generic[f]; g {
			continue
		}
		out = append(out, f)
	}
	return out
}
