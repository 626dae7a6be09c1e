package synth

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/reputation"
	"repro/internal/stats"
)

// domainKind classifies download domains by their hosting behaviour.
type domainKind int

const (
	// kindHosting: large file-hosting services serving benign, malicious
	// and unknown files alike (softonic.com, mediafire.com, ...), the
	// mixed-reputation phenomenon of Section IV-B.
	kindHosting domainKind = iota + 1
	// kindVendor: legitimate software vendor/download sites.
	kindVendor
	// kindAdwareDist: adware/PUP distribution portals, popular and
	// well-ranked yet serving mostly grayware and unknowns.
	kindAdwareDist
	// kindStreaming: free live-streaming sites spreading adware
	// (Section IV-B's media-watch-app.com et al.).
	kindStreaming
	// kindFakeAV: social-engineering fake-antivirus domains.
	kindFakeAV
	// kindC2: low-profile malware distribution endpoints used by bots,
	// bankers and worms.
	kindC2
	// kindGeneric: long tail of miscellaneous sites.
	kindGeneric
	// kindAgentWL: major-vendor domains whitelisted at the agent; their
	// downloads never reach the collection server.
	kindAgentWL
)

// domainInfo is one download domain (an e2LD) with its Alexa rank
// (0 = unranked).
type domainInfo struct {
	Name string
	Rank int
	Kind domainKind
}

// Paper-named seed domains per kind.
var domainSeeds = map[domainKind][]string{
	kindHosting: {
		"softonic.com", "mediafire.com", "cloudfront.net", "amazonaws.com",
		"soft32.com", "4shared.com", "uptodown.com", "baixaki.com.br",
		"softonic.com.br", "rackcdn.com", "cdn77.net", "nzs.com.br",
		"files-info.com", "sharesend.com", "ge.tt", "softonic.fr",
		"softonic.jp",
	},
	kindVendor: {
		"driverupdate.net", "arcadefrontier.com", "ziputil.net",
		"updatestar.com", "gamehouse.com", "coolrom.com",
	},
	kindAdwareDist: {
		"inbox.com", "humipapp.com", "bestdownload-manager.com",
		"freepdf-converter.com", "free-fileopener.com",
		"zilliontoolkitusa.info", "downloadaixeechahgho.com",
		"d0wnpzivrubajjui.com", "vitkvitk.com", "downloadnuchaik.com",
	},
	kindStreaming: {
		"media-watch-app.com", "trustmediaviewer.com", "vidply.net",
		"media-view.net", "media-buzz.org", "mediaply.net",
		"pinchfist.info", "dl24x7.net", "zrich-media-view.com",
		"media-viewer.com",
	},
	kindFakeAV: {
		"5k-stopadware2014.in", "sncpwindefender2014.in",
		"webantiviruspro-fr.pw", "12e-stopadware2014.in",
		"zeroantivirusprojectx.nl", "wmicrodefender27.nl",
		"qwindowsdefender.nl", "alphavirusprotectz.pw",
	},
	kindC2: {
		"wipmsc.ru", "f-best.biz", "gulfup.com", "hinet.net", "naver.net",
	},
	kindAgentWL: {
		"microsoft.com", "windowsupdate.com", "adobe.com", "google.com",
		"apple.com", "mozilla.org",
	},
}

// domainPlan sizes and ranks each kind. Counts are paper-scale (the full
// corpus has 96,862 distinct domains) and get multiplied by Scale.
var domainPlans = map[domainKind]struct {
	PaperCount       int
	MinCount         int
	MinRank, MaxRank int // 0,0 = unranked
	RankedShare      float64
	Pattern          string
}{
	kindHosting:    {PaperCount: 900, MinCount: 12, MinRank: 80, MaxRank: 8_000, RankedShare: 1.0, Pattern: "filehost%03d.com"},
	kindVendor:     {PaperCount: 22_000, MinCount: 30, MinRank: 500, MaxRank: 60_000, RankedShare: 0.95, Pattern: "swvendor%05d.com"},
	kindAdwareDist: {PaperCount: 9_000, MinCount: 20, MinRank: 2_000, MaxRank: 90_000, RankedShare: 0.85, Pattern: "get-freeapp%04d.com"},
	kindStreaming:  {PaperCount: 4_000, MinCount: 14, MinRank: 8_000, MaxRank: 300_000, RankedShare: 0.7, Pattern: "stream-view%04d.net"},
	kindFakeAV:     {PaperCount: 2_500, MinCount: 12, MinRank: 400_000, MaxRank: 990_000, RankedShare: 0.15, Pattern: "win-defender-pro%04d.in"},
	kindC2:         {PaperCount: 18_000, MinCount: 20, MinRank: 500_000, MaxRank: 990_000, RankedShare: 0.12, Pattern: "upd%05d.ru"},
	kindGeneric:    {PaperCount: 41_000, MinCount: 40, MinRank: 20_000, MaxRank: 950_000, RankedShare: 0.4, Pattern: "site%05d.net"},
	kindAgentWL:    {PaperCount: 6, MinCount: 6, MinRank: 1, MaxRank: 60, RankedShare: 1.0, Pattern: "vendorwl%02d.com"},
}

// domainCatalog holds all generated domains plus the reputation oracle
// views over them.
type domainCatalog struct {
	byKind map[domainKind][]*domainInfo
	rng    *rand.Rand
	zipfs  zipfPicker

	alexa   map[string]int
	urlWL   []string
	urlBL   []string
	gsb     []string
	agentWL []string
}

func newDomainCatalog(rng *rand.Rand, scale float64) (*domainCatalog, error) {
	c := &domainCatalog{
		byKind: make(map[domainKind][]*domainInfo),
		rng:    rng,
		zipfs:  make(zipfPicker),
		alexa:  make(map[string]int),
	}
	// Deterministic build order: map iteration would randomize the RNG
	// draw sequence and break dataset reproducibility.
	kinds := []domainKind{
		kindHosting, kindVendor, kindAdwareDist, kindStreaming,
		kindFakeAV, kindC2, kindGeneric, kindAgentWL,
	}
	for _, kind := range kinds {
		plan := domainPlans[kind]
		n := int(float64(plan.PaperCount) * scale)
		if n < plan.MinCount {
			n = plan.MinCount
		}
		seeds := domainSeeds[kind]
		for i := 0; i < n; i++ {
			var name string
			if i < len(seeds) {
				name = seeds[i]
			} else {
				name = fmt.Sprintf(plan.Pattern, i)
			}
			d := &domainInfo{Name: name, Kind: kind}
			if stats.Bernoulli(rng, plan.RankedShare) {
				span := plan.MaxRank - plan.MinRank
				if span <= 0 {
					span = 1
				}
				// Skew ranks toward the low (popular) end of the band.
				u := rng.Float64()
				d.Rank = plan.MinRank + int(u*u*float64(span))
			}
			c.byKind[kind] = append(c.byKind[kind], d)
			if d.Rank > 0 {
				c.alexa[d.Name] = d.Rank
			}
		}
	}
	c.buildReputationFeeds()
	return c, nil
}

// buildReputationFeeds derives the URL white/blacklists, the Safe
// Browsing feed and the agent whitelist from the catalog.
func (c *domainCatalog) buildReputationFeeds() {
	for kind, domains := range c.byKind {
		for _, d := range domains {
			switch kind {
			case kindHosting:
				// Most (not all) big hosting services are curated.
				if stableIndex(d.Name, 100) < 70 {
					c.urlWL = append(c.urlWL, d.Name)
				}
			case kindVendor:
				// The curated whitelist covers only part of the vendor
				// long tail, keeping the benign-URL share near Table I's
				// 29.8%.
				if stableIndex(d.Name, 100) < 40 {
					c.urlWL = append(c.urlWL, d.Name)
				}
			case kindFakeAV, kindC2:
				c.gsb = append(c.gsb, d.Name)
				c.urlBL = append(c.urlBL, d.Name)
			case kindAdwareDist:
				// A slice of the adware portals is blacklisted.
				if stableIndex(d.Name, 100) < 45 {
					c.gsb = append(c.gsb, d.Name)
					c.urlBL = append(c.urlBL, d.Name)
				}
			case kindAgentWL:
				c.agentWL = append(c.agentWL, d.Name)
			}
		}
	}
}

// oracle builds the reputation oracle over the catalog plus the given
// file whitelist.
func (c *domainCatalog) oracle(fileWL *reputation.FileList) (*reputation.Oracle, error) {
	alexa, err := reputation.NewAlexaList(c.alexa)
	if err != nil {
		return nil, err
	}
	wl, err := reputation.NewDomainList(c.urlWL)
	if err != nil {
		return nil, err
	}
	bl, err := reputation.NewDomainList(c.urlBL)
	if err != nil {
		return nil, err
	}
	gsb, err := reputation.NewDomainList(c.gsb)
	if err != nil {
		return nil, err
	}
	agentWL, err := reputation.NewDomainList(c.agentWL)
	if err != nil {
		return nil, err
	}
	return reputation.NewOracle(alexa, wl, bl, gsb, fileWL, agentWL), nil
}

// kindWeights maps a file population to the domain kinds serving it.
type kindWeight struct {
	kind domainKind
	w    float64
}

var benignDomainKinds = []kindWeight{
	{kindHosting, 0.45}, {kindVendor, 0.50}, {kindGeneric, 0.05},
}

var unknownBenignDomainKinds = []kindWeight{
	{kindVendor, 0.45}, {kindHosting, 0.30}, {kindGeneric, 0.25},
}

var unknownMalDomainKinds = []kindWeight{
	{kindAdwareDist, 0.40}, {kindHosting, 0.25}, {kindStreaming, 0.15},
	{kindGeneric, 0.15}, {kindC2, 0.05},
}

var malDomainKindsByType = map[dataset.MalwareType][]kindWeight{
	dataset.TypeDropper:    {{kindHosting, 0.55}, {kindAdwareDist, 0.30}, {kindGeneric, 0.15}},
	dataset.TypePUP:        {{kindAdwareDist, 0.50}, {kindHosting, 0.30}, {kindGeneric, 0.20}},
	dataset.TypeAdware:     {{kindStreaming, 0.45}, {kindAdwareDist, 0.35}, {kindHosting, 0.20}},
	dataset.TypeTrojan:     {{kindHosting, 0.35}, {kindAdwareDist, 0.25}, {kindGeneric, 0.25}, {kindC2, 0.15}},
	dataset.TypeBanker:     {{kindC2, 0.75}, {kindGeneric, 0.25}},
	dataset.TypeBot:        {{kindC2, 0.80}, {kindGeneric, 0.20}},
	dataset.TypeFakeAV:     {{kindFakeAV, 0.85}, {kindGeneric, 0.15}},
	dataset.TypeRansomware: {{kindC2, 0.55}, {kindGeneric, 0.30}, {kindHosting, 0.15}},
	dataset.TypeWorm:       {{kindC2, 0.70}, {kindGeneric, 0.30}},
	dataset.TypeSpyware:    {{kindVendor, 0.40}, {kindGeneric, 0.40}, {kindC2, 0.20}},
	dataset.TypeUndefined:  {{kindHosting, 0.30}, {kindAdwareDist, 0.30}, {kindGeneric, 0.25}, {kindC2, 0.15}},
}

// pick selects a domain for the given kind-weight mix, zipf-weighted
// within the kind so a handful of domains dominate each population.
func (c *domainCatalog) pick(mix []kindWeight) *domainInfo {
	weights := make([]float64, len(mix))
	for i, kw := range mix {
		weights[i] = kw.w
	}
	idx, err := stats.WeightedChoice(c.rng, weights)
	if err != nil {
		idx = 0
	}
	pool := c.byKind[mix[idx].kind]
	return zipfPick(c.zipfs, pool, c.rng)
}

// pickAgentWhitelisted returns a domain suppressed by the agent rules.
func (c *domainCatalog) pickAgentWhitelisted() *domainInfo {
	return zipfPick(c.zipfs, c.byKind[kindAgentWL], c.rng)
}

// domainsForClass returns the kind-weight mix for a file population.
func domainsForClass(plan classPlan, typ dataset.MalwareType, latentMal bool) []kindWeight {
	switch plan {
	case planBenign, planLikelyBenign:
		return benignDomainKinds
	case planMalicious, planLikelyMalicious:
		return malDomainKindsByType[typ]
	default:
		if latentMal {
			return unknownMalDomainKinds
		}
		return unknownBenignDomainKinds
	}
}
