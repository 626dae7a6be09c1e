package synth

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// signerInfo is one code-signing identity: a subject name bound to the
// certification authority that issued its certificate.
type signerInfo struct {
	Name string
	CA   string
}

// World is the generative model behind the synthetic telemetry: the
// catalogs of signers, CAs, packers, families, domains and processes
// from which files and events are drawn.
type World struct {
	cfg Config
	rng *rand.Rand

	benignSigners []signerInfo // sign only benign software
	malSigners    []signerInfo // sign only malicious software
	commonSigners []signerInfo // sign both (PUP-ish publishers, abused certs)

	packersCommon []string
	packersMal    []string
	packersBenign []string

	families map[dataset.MalwareType][]string

	domains   *domainCatalog
	processes *processCatalog

	// zipfs and malSubsets hold what the per-file draws would otherwise
	// rebuild on every call: one Zipf sampler per (rng, pool size), and
	// signerForMalicious's subset of each pool per type.
	zipfs      zipfPicker
	malSubsets map[malSubsetKey][]signerInfo
}

// certification authorities. Real CAs issue to everyone, so the benign
// and abused pools overlap heavily and differ only in mixture weights
// (duplicated entries weight the deterministic per-signer choice); the
// signer identity, not the CA, is the discriminative feature, as in the
// paper where the file-signer feature dominates the learned rules.
var (
	benignCAs = []string{
		"verisign class 3 code signing 2010 ca",
		"verisign class 3 code signing 2010 ca",
		"digicert assured id code signing ca-1",
		"digicert assured id code signing ca-1",
		"symantec class 3 sha256 code signing ca",
		"globalsign codesigning ca - g2",
		"comodo code signing ca 2",
		"thawte code signing ca - g2",
		"certum code signing ca sha2",
		"go daddy secure certificate authority - g2",
	}
	abusedCAs = []string{
		"thawte code signing ca - g2",
		"thawte code signing ca - g2",
		"wosign code signing ca",
		"certum code signing ca sha2",
		"certum code signing ca sha2",
		"comodo code signing ca 2",
		"comodo code signing ca 2",
		"go daddy secure certificate authority - g2",
		"verisign class 3 code signing 2010 ca",
		"digicert assured id code signing ca-1",
	}
)

// Named signers from the paper's Tables VIII and IX keep the generated
// world recognizably aligned with the measurements.
var paperBenignSigners = []string{
	"TeamViewer", "Blizzard Entertainment", "Lespeed Technology Ltd.",
	"Hamrick Software", "Dell Inc.", "Google Inc", "NVIDIA Corporation",
	"Softland S.R.L.", "Adobe Systems Incorporated", "Recovery Toolbox",
	"Lenovo Information Products (Shenzhen) Co.", "MetaQuotes Software Corp.",
	"Rare Ideas", "Mozilla Corporation", "Opera Software ASA",
}

var paperMalSigners = []string{
	"Somoto Ltd.", "ISBRInstaller", "Somoto Israel", "Apps Installer SL",
	"SecureInstall", "Firseria", "Amonetize ltd.", "JumpyApps",
	"ClientConnect LTD", "Media Ingea SL", "RAPIDDOWN", "Sevas-S LLC",
	"Trusted Software Aps", "Tuto4PC.com", "SITE ON SPOT Ltd.",
	"WEBPIC DESENVOLVIMENTO DE SOFTWARE LTDA", "JDI BACKUP LIMITED",
	"Wallinson", "Webcellence Ltd.", "Shanghai Gaoxin Computer System Co.",
	"mail.ru games", "R-DATA Sp. z o.o.", "Mipko OOO",
}

var paperCommonSigners = []string{
	"Softonic International", "Binstall", "UpdateStar GmbH", "AppWork GmbH",
	"WorldSetup", "BoomeranGO Inc.", "Perion Network Ltd.", "Refog Inc.",
	"AVG Technologies", "BitTorrent", "Open Source Developer", "TLAPIA",
	"JumpyApps Media", "The Nielsen Company", "Video Technology",
}

// Packers (Section IV-C): 69 total, about half used by both populations;
// Molebox, NSPack and Themida appear exclusively on malicious files.
var (
	paperCommonPackers = []string{
		"INNO", "UPX", "AutoIt", "NSIS", "ASPack", "PECompact", "MPRESS",
		"Armadillo", "ASProtect", "ExeStealth", "FSG", "MEW", "Petite",
		"UPack", "WinRAR-SFX", "7z-SFX", "InstallShield", "WiseInstaller",
		"PKLITE", "Shrinker",
	}
	paperMalPackers = []string{
		"Molebox", "NSPack", "Themida", "VMProtect", "Obsidium",
		"Enigma", "ExeCryptor", "PELock", "tElock", "Yoda's Crypter",
	}
	paperBenignPackers = []string{"MSI-Wrapper", "Squirrel", "InnoExtended"}
)

// Family seeds per behaviour type. zbot stays exclusive to bankers
// because the AVType interpretation map hard-binds the Zbot family to the
// banker behaviour, as in the paper's example.
var familySeeds = map[dataset.MalwareType][]string{
	dataset.TypeDropper:    {"somoto", "outbrowse", "downloadadmin", "softpulse", "loadmoney", "dlhelper"},
	dataset.TypePUP:        {"firseria", "installcore", "amonetize", "opencandy", "conduit", "sprotector"},
	dataset.TypeAdware:     {"zango", "eorezo", "browsefox", "multiplug", "gator", "adposhel"},
	dataset.TypeTrojan:     {"vundo", "simda", "ramnit", "badur", "llac", "scar"},
	dataset.TypeBanker:     {"zbot", "banload", "bancos", "spyeye", "cridex"},
	dataset.TypeBot:        {"gamarue", "andromeda", "sality", "virut", "dorkbot"},
	dataset.TypeFakeAV:     {"fakerean", "winwebsec", "securityshield", "fakesysdef"},
	dataset.TypeRansomware: {"cryptolocker", "cryptowall", "urausy", "reveton"},
	dataset.TypeWorm:       {"allaple", "vobfus", "mydoom", "palevo"},
	dataset.TypeSpyware:    {"refog", "mipko", "ardamax", "spyrix"},
	dataset.TypeUndefined:  nil,
}

// NewWorld builds a world for the given configuration.
func NewWorld(cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &World{
		cfg:        cfg,
		rng:        stats.NewRNG(cfg.Seed),
		families:   make(map[dataset.MalwareType][]string),
		zipfs:      make(zipfPicker),
		malSubsets: make(map[malSubsetKey][]signerInfo),
	}
	w.buildSigners()
	w.buildPackers()
	w.buildFamilies()
	var err error
	if w.domains, err = newDomainCatalog(stats.Fork(w.rng), cfg.Scale); err != nil {
		return nil, fmt.Errorf("synth: build domains: %w", err)
	}
	if w.processes, err = newProcessCatalog(stats.Fork(w.rng), cfg.Scale, w); err != nil {
		return nil, fmt.Errorf("synth: build processes: %w", err)
	}
	return w, nil
}

// scaledCount scales a paper-sized count down, with a floor.
func (w *World) scaledCount(paperCount, min int) int {
	n := int(float64(paperCount) * w.cfg.Scale)
	if n < min {
		n = min
	}
	return n
}

func (w *World) buildSigners() {
	mkSigners := func(seed []string, generatedPrefix string, total int, cas []string) []signerInfo {
		out := make([]signerInfo, 0, total)
		for _, name := range seed {
			out = append(out, signerInfo{Name: name, CA: cas[stableIndex(name, len(cas))]})
		}
		for i := len(out); i < total; i++ {
			name := fmt.Sprintf("%s %03d Ltd.", generatedPrefix, i)
			out = append(out, signerInfo{Name: name, CA: cas[stableIndex(name, len(cas))]})
		}
		return out
	}
	// Table VII: 1,870 signers total, 513 in common with benign.
	w.benignSigners = mkSigners(paperBenignSigners, "Veritas Software", w.scaledCount(2600, 40), benignCAs)
	w.malSigners = mkSigners(paperMalSigners, "Fastinstall Media", w.scaledCount(1360, 30), abusedCAs)
	w.commonSigners = mkSigners(paperCommonSigners, "Bundleware Partners", w.scaledCount(510, 16), abusedCAs)
}

func (w *World) buildPackers() {
	w.packersCommon = append([]string(nil), paperCommonPackers...)
	w.packersMal = append([]string(nil), paperMalPackers...)
	w.packersBenign = append([]string(nil), paperBenignPackers...)
	// Fill the roster to 69 unique packers: 35 common per the paper.
	for i := len(w.packersCommon); i < 35; i++ {
		w.packersCommon = append(w.packersCommon, fmt.Sprintf("GenPack%02d", i))
	}
	for i := len(w.packersMal); i < 22; i++ {
		w.packersMal = append(w.packersMal, fmt.Sprintf("CryptShell%02d", i))
	}
	for i := len(w.packersBenign); i < 12; i++ {
		w.packersBenign = append(w.packersBenign, fmt.Sprintf("SetupKit%02d", i))
	}
}

func (w *World) buildFamilies() {
	// The paper observes 363 families; spread generated families across
	// types proportionally to their Table II shares.
	extraPerType := map[dataset.MalwareType]int{
		dataset.TypeDropper: 70, dataset.TypePUP: 60, dataset.TypeAdware: 55,
		dataset.TypeTrojan: 80, dataset.TypeBanker: 12, dataset.TypeBot: 12,
		dataset.TypeFakeAV: 10, dataset.TypeRansomware: 8, dataset.TypeWorm: 8,
		dataset.TypeSpyware: 6,
	}
	for typ, seeds := range familySeeds {
		fams := append([]string(nil), seeds...)
		for i := 0; i < extraPerType[typ]; i++ {
			fams = append(fams, fmt.Sprintf("%sfam%02d", typ.String()[:3], i))
		}
		w.families[typ] = fams
	}
}

// familyFor draws a family for a malicious file of the given type; zipf
// weighted so Figure 1's top-25 concentration appears.
func (w *World) familyFor(typ dataset.MalwareType, rng *rand.Rand) string {
	fams := w.families[typ]
	if len(fams) == 0 {
		return ""
	}
	return fams[w.zipfs.index(rng, len(fams))]
}

// malCommonShare is the share of a malicious type's signed files whose
// signer comes from the common-with-benign pool rather than the
// exclusive malware signers.
var malCommonShare = map[dataset.MalwareType]float64{
	dataset.TypeDropper: 0.30, dataset.TypePUP: 0.35, dataset.TypeAdware: 0.30,
	dataset.TypeTrojan: 0.20, dataset.TypeUndefined: 0.33,
	dataset.TypeSpyware: 0.40, dataset.TypeRansomware: 0.25,
}

// malSubsetKey names one type's subset of one signer pool.
type malSubsetKey struct {
	common bool // commonSigners, else malSigners
	typ    dataset.MalwareType
}

// signerForMalicious draws a signer for a malicious (or latent-malicious)
// file of the given type: common-with-benign publishers for the
// grayware-adjacent types, exclusive malware signers otherwise.
func (w *World) signerForMalicious(typ dataset.MalwareType, rng *rand.Rand) signerInfo {
	key := malSubsetKey{common: stats.Bernoulli(rng, malCommonShare[typ]), typ: typ}
	subset, ok := w.malSubsets[key]
	if !ok {
		subset = w.malSubset(key)
		w.malSubsets[key] = subset
	}
	return zipfPick(w.zipfs, subset, rng)
}

// malSubset computes one type's subset of a signer pool.
func (w *World) malSubset(key malSubsetKey) []signerInfo {
	pool := w.malSigners
	if key.common {
		pool = w.commonSigners
	}
	// Restrict each type to a deterministic subset of the pool so
	// per-type signer counts differ (Table VII) while still overlapping
	// across types.
	subsetPct := map[dataset.MalwareType]int{
		dataset.TypeTrojan: 35, dataset.TypeDropper: 20, dataset.TypeRansomware: 3,
		dataset.TypeBanker: 2, dataset.TypeBot: 3, dataset.TypeWorm: 2,
		dataset.TypeSpyware: 2, dataset.TypeFakeAV: 3, dataset.TypeAdware: 40,
		dataset.TypePUP: 50, dataset.TypeUndefined: 70,
	}[key.typ]
	if subsetPct == 0 {
		subsetPct = 10
	}
	var subset []signerInfo
	for _, s := range pool {
		if stableIndex(s.Name+key.typ.String(), 100) < subsetPct {
			subset = append(subset, s)
		}
	}
	if len(subset) == 0 {
		// Tiny pools can leave a rare type with an empty subset; fall
		// back to a small fixed slice so rare types keep small rosters.
		n := 3
		if n > len(pool) {
			n = len(pool)
		}
		subset = pool[:n]
	}
	return subset
}

// signerForBenign draws a signer for a benign (or latent-benign) file.
func (w *World) signerForBenign(rng *rand.Rand) signerInfo {
	if stats.Bernoulli(rng, 0.10) {
		return zipfPick(w.zipfs, w.commonSigners, rng)
	}
	return zipfPick(w.zipfs, w.benignSigners, rng)
}

// packerFor draws a packer name for a file that is packed.
func (w *World) packerFor(malicious bool, rng *rand.Rand) string {
	if malicious {
		if stats.Bernoulli(rng, 0.12) {
			return zipfPick(w.zipfs, w.packersMal, rng)
		}
		return zipfPick(w.zipfs, w.packersCommon, rng)
	}
	if stats.Bernoulli(rng, 0.12) {
		return zipfPick(w.zipfs, w.packersBenign, rng)
	}
	return zipfPick(w.zipfs, w.packersCommon, rng)
}

// zipfPicker draws rank-weighted (1.5-exponent zipf) pool indexes, so
// every pool has heavy hitters. It builds one sampler per (rng, pool
// size) on first use and keeps it: rand.NewZipf draws nothing from the
// rng, so a kept sampler draws exactly what a fresh one per pick would.
type zipfPicker map[zipfKey]*stats.Zipf

// zipfKey names one sampler: the rng it draws from and the pool size.
type zipfKey struct {
	rng *rand.Rand
	n   int
}

// index draws an index into a pool of n elements.
func (zp zipfPicker) index(rng *rand.Rand, n int) int {
	key := zipfKey{rng: rng, n: n}
	z, ok := zp[key]
	if !ok {
		var err error
		if z, err = stats.NewZipf(rng, 1.5, uint64(n)); err != nil {
			return 0
		}
		zp[key] = z
	}
	return int(z.Draw()) - 1
}

// zipfPick selects a pool element through zp; a pool of one is its own
// pick and draws nothing.
func zipfPick[T any](zp zipfPicker, pool []T, rng *rand.Rand) T {
	if len(pool) == 1 {
		return pool[0]
	}
	return pool[zp.index(rng, len(pool))]
}

// stableIndex hashes s onto [0, n).
func stableIndex(s string, n int) int {
	if n <= 0 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(s))
	return int(h.Sum32() % uint32(n))
}
