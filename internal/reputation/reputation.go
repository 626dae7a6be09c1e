// Package reputation provides the external reputation sources the
// paper's labeling pipeline consults (Section II-B): an Alexa-style
// domain ranking (restricted to domains that stayed in the top million
// for about a year), private curated URL white- and blacklists, a Google
// Safe Browsing-like feed, and file whitelists standing in for the
// commercial whitelist and NIST's software reference library.
package reputation

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
)

// AlexaList models the Alexa top-sites ranking. Only domains that
// consistently appeared in the top one million are listed, matching how
// the paper de-noises the raw Alexa feed.
type AlexaList struct {
	ranks map[string]int
}

// NewAlexaList builds the list from domain → rank. Ranks must be >= 1.
func NewAlexaList(ranks map[string]int) (*AlexaList, error) {
	cp := make(map[string]int, len(ranks))
	for d, r := range ranks {
		if d == "" {
			return nil, fmt.Errorf("reputation: empty domain in Alexa list")
		}
		if r < 1 {
			return nil, fmt.Errorf("reputation: domain %q has invalid rank %d", d, r)
		}
		cp[d] = r
	}
	return &AlexaList{ranks: cp}, nil
}

// Rank returns the domain's rank and whether the domain is listed.
func (a *AlexaList) Rank(domain string) (int, bool) {
	r, ok := a.ranks[domain]
	return r, ok
}

// InTopMillion reports whether the domain is in the stable top-1M list.
func (a *AlexaList) InTopMillion(domain string) bool {
	r, ok := a.ranks[domain]
	return ok && r <= 1_000_000
}

// Len returns the number of ranked domains.
func (a *AlexaList) Len() int { return len(a.ranks) }

// Domains returns every listed domain in ascending order, the same in
// every process: the feature extractor lays its rank table out by it.
func (a *AlexaList) Domains() []string {
	out := make([]string, 0, len(a.ranks))
	for d := range a.ranks {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// DomainList is a set of e2LDs, used for URL whitelists, blacklists and
// the Safe Browsing feed.
type DomainList struct {
	set map[string]struct{}
}

// NewDomainList builds a list from domains; empty strings are rejected.
func NewDomainList(domains []string) (*DomainList, error) {
	set := make(map[string]struct{}, len(domains))
	for _, d := range domains {
		if d == "" {
			return nil, fmt.Errorf("reputation: empty domain in list")
		}
		set[d] = struct{}{}
	}
	return &DomainList{set: set}, nil
}

// Contains reports membership.
func (l *DomainList) Contains(domain string) bool {
	_, ok := l.set[domain]
	return ok
}

// Len returns the list size.
func (l *DomainList) Len() int { return len(l.set) }

// FileList is a set of known file hashes (e.g. the commercial whitelist
// plus NSRL).
type FileList struct {
	set map[dataset.FileHash]struct{}
}

// NewFileList builds a list from hashes; empty hashes are rejected.
func NewFileList(hashes []dataset.FileHash) (*FileList, error) {
	set := make(map[dataset.FileHash]struct{}, len(hashes))
	for _, h := range hashes {
		if h == "" {
			return nil, fmt.Errorf("reputation: empty hash in file list")
		}
		set[h] = struct{}{}
	}
	return &FileList{set: set}, nil
}

// Contains reports membership.
func (l *FileList) Contains(h dataset.FileHash) bool {
	_, ok := l.set[h]
	return ok
}

// Len returns the list size.
func (l *FileList) Len() int { return len(l.set) }

// Oracle bundles every reputation source the labeling pipeline needs.
type Oracle struct {
	Alexa         *AlexaList
	URLWhitelist  *DomainList // private curated whitelist (Trend Micro's in the paper)
	URLBlacklist  *DomainList // private URL blacklist
	SafeBrowsing  *DomainList // Google Safe Browsing-like feed
	FileWhitelist *FileList   // commercial whitelist + NSRL
	// AgentURLWhitelist suppresses collection of downloads from major
	// software vendors at the agent (Section II-A), distinct from the
	// labeling whitelist.
	AgentURLWhitelist *DomainList
}

// NewOracle builds an oracle; nil components are replaced with empty
// lists so lookups are always safe.
func NewOracle(alexa *AlexaList, urlWL, urlBL, gsb *DomainList, fileWL *FileList, agentWL *DomainList) *Oracle {
	if alexa == nil {
		alexa = &AlexaList{ranks: map[string]int{}}
	}
	empty := func(l *DomainList) *DomainList {
		if l == nil {
			return &DomainList{set: map[string]struct{}{}}
		}
		return l
	}
	if fileWL == nil {
		fileWL = &FileList{set: map[dataset.FileHash]struct{}{}}
	}
	return &Oracle{
		Alexa:             alexa,
		URLWhitelist:      empty(urlWL),
		URLBlacklist:      empty(urlBL),
		SafeBrowsing:      empty(gsb),
		FileWhitelist:     fileWL,
		AgentURLWhitelist: empty(agentWL),
	}
}

// LabelDomain applies the paper's URL labeling rules to an e2LD:
// benign when the domain is in the stable Alexa top-1M AND matches the
// private curated whitelist; malicious when it matches Safe Browsing AND
// the private blacklist; unknown otherwise.
func (o *Oracle) LabelDomain(domain string) dataset.URLVerdict {
	if o.Alexa.InTopMillion(domain) && o.URLWhitelist.Contains(domain) {
		return dataset.URLBenign
	}
	if o.SafeBrowsing.Contains(domain) && o.URLBlacklist.Contains(domain) {
		return dataset.URLMalicious
	}
	return dataset.URLUnknown
}

// AlexaRank returns the domain's rank, or 0 when unranked. The feature
// extractor treats 0 as "not ranked".
func (o *Oracle) AlexaRank(domain string) int {
	r, ok := o.Alexa.Rank(domain)
	if !ok {
		return 0
	}
	return r
}
