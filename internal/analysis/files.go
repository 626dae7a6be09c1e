package analysis

import (
	"sort"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// FamilyStats summarizes the malware-family distribution (Figure 1).
type FamilyStats struct {
	// Top holds the most common families by sample count.
	Top []stats.KV
	// DistinctFamilies is the number of distinct derived families.
	DistinctFamilies int
	// NoFamilyShare is the fraction of malicious files for which no
	// family could be derived (58% in the paper).
	NoFamilyShare float64
	// TotalMalicious is the number of malicious files considered.
	TotalMalicious int
}

// Families computes Figure 1's family distribution over malicious
// downloaded files.
func (a *Analyzer) Families(topK int) FamilyStats {
	counter := stats.NewCounter()
	total, noFam := 0, 0
	for _, f := range a.store.DownloadedFiles() {
		gt := a.store.Truth(f)
		if gt.Label != dataset.LabelMalicious {
			continue
		}
		total++
		if gt.Family == "" {
			noFam++
			continue
		}
		counter.Add(gt.Family)
	}
	fs := FamilyStats{
		Top:              counter.Top(topK),
		DistinctFamilies: counter.Distinct(),
		TotalMalicious:   total,
	}
	if total > 0 {
		fs.NoFamilyShare = float64(noFam) / float64(total)
	}
	return fs
}

// TypeBreakdown computes Table II: the share of each behaviour type
// among malicious downloaded files.
func (a *Analyzer) TypeBreakdown() (counts map[dataset.MalwareType]int, total int) {
	counts = make(map[dataset.MalwareType]int)
	for _, f := range a.store.DownloadedFiles() {
		gt := a.store.Truth(f)
		if gt.Label != dataset.LabelMalicious {
			continue
		}
		counts[gt.Type]++
		total++
	}
	return counts, total
}

// PrevalenceStats captures Figure 2: per-class prevalence histograms.
type PrevalenceStats struct {
	// ByLabel histograms prevalence per ground-truth label.
	ByLabel map[dataset.Label]*stats.Histogram
	// All aggregates every downloaded file.
	All *stats.Histogram
}

// Prevalence computes Figure 2's distributions.
func (a *Analyzer) Prevalence() PrevalenceStats {
	ps := PrevalenceStats{
		ByLabel: make(map[dataset.Label]*stats.Histogram),
		All:     stats.NewHistogram(),
	}
	for _, f := range a.store.DownloadedFiles() {
		p := a.store.Prevalence(f)
		ps.All.Add(p)
		label := a.store.Label(f)
		h, ok := ps.ByLabel[label]
		if !ok {
			h = stats.NewHistogram()
			ps.ByLabel[label] = h
		}
		h.Add(p)
	}
	return ps
}

// MachinesTouchingUnknown returns the fraction of machines that
// downloaded at least one unknown file (69% in the paper).
func (a *Analyzer) MachinesTouchingUnknown() float64 {
	events := a.store.Events()
	machines := make(map[dataset.MachineID]struct{})
	touched := make(map[dataset.MachineID]struct{})
	for i := range events {
		machines[events[i].Machine] = struct{}{}
		if a.store.Label(events[i].File) == dataset.LabelUnknown {
			touched[events[i].Machine] = struct{}{}
		}
	}
	if len(machines) == 0 {
		return 0
	}
	return float64(len(touched)) / float64(len(machines))
}

// PackerStats summarizes Section IV-C's packer findings.
type PackerStats struct {
	BenignPackedShare    float64
	MaliciousPackedShare float64
	UnknownPackedShare   float64
	// DistinctPackers counts packers seen on benign or malicious files;
	// SharedPackers those seen on both; the remaining split exclusive.
	DistinctPackers   int
	SharedPackers     int
	BenignOnlyPackers []string
	MaliciousOnly     []string
}

// Packers computes packer usage over labeled files.
func (a *Analyzer) Packers() PackerStats {
	type counts struct{ total, packed int }
	var ben, mal, unk counts
	benignPackers := make(map[string]struct{})
	malPackers := make(map[string]struct{})
	for _, f := range a.store.DownloadedFiles() {
		meta := a.store.File(f)
		if meta == nil {
			continue
		}
		switch a.store.Label(f) {
		case dataset.LabelBenign:
			ben.total++
			if meta.Packed() {
				ben.packed++
				benignPackers[meta.Packer] = struct{}{}
			}
		case dataset.LabelMalicious:
			mal.total++
			if meta.Packed() {
				mal.packed++
				malPackers[meta.Packer] = struct{}{}
			}
		case dataset.LabelUnknown:
			unk.total++
			if meta.Packed() {
				unk.packed++
			}
		}
	}
	ps := PackerStats{
		BenignPackedShare:    stats.Ratio(ben.packed, ben.total),
		MaliciousPackedShare: stats.Ratio(mal.packed, mal.total),
		UnknownPackedShare:   stats.Ratio(unk.packed, unk.total),
	}
	all := make(map[string]struct{})
	for p := range benignPackers {
		all[p] = struct{}{}
		if _, shared := malPackers[p]; shared {
			ps.SharedPackers++
		} else {
			ps.BenignOnlyPackers = append(ps.BenignOnlyPackers, p)
		}
	}
	for p := range malPackers {
		all[p] = struct{}{}
		if _, shared := benignPackers[p]; !shared {
			ps.MaliciousOnly = append(ps.MaliciousOnly, p)
		}
	}
	ps.DistinctPackers = len(all)
	sort.Strings(ps.BenignOnlyPackers)
	sort.Strings(ps.MaliciousOnly)
	return ps
}

// PrevalenceByType histograms file prevalence per malicious behaviour
// type. The paper reports these distributions are "very similar to each
// other".
func (a *Analyzer) PrevalenceByType() map[dataset.MalwareType]*stats.Histogram {
	out := make(map[dataset.MalwareType]*stats.Histogram)
	for _, f := range a.store.DownloadedFiles() {
		gt := a.store.Truth(f)
		if gt.Label != dataset.LabelMalicious {
			continue
		}
		h, ok := out[gt.Type]
		if !ok {
			h = stats.NewHistogram()
			out[gt.Type] = h
		}
		h.Add(a.store.Prevalence(f))
	}
	return out
}
