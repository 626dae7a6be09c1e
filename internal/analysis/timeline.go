package analysis

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// TransitionSource selects the Figure 5 curve being computed.
type TransitionSource int

// Sources.
const (
	// SourceBenign: machines whose anchor is a benign download with no
	// prior malicious download.
	SourceBenign TransitionSource = iota + 1
	// SourceAdware / SourcePUP / SourceDropper: machines whose anchor is
	// the first download+execution of that malicious type.
	SourceAdware
	SourcePUP
	SourceDropper
)

// String names the source.
func (s TransitionSource) String() string {
	switch s {
	case SourceBenign:
		return "benign"
	case SourceAdware:
		return "adware"
	case SourcePUP:
		return "pup"
	case SourceDropper:
		return "dropper"
	default:
		return fmt.Sprintf("source(%d)", int(s))
	}
}

// TransitionStats is one Figure 5 curve: the CDF (in days) of the time
// between the anchor download and the machine's next download of "other
// malware" (any malicious type except adware, PUP and undefined).
type TransitionStats struct {
	Source TransitionSource
	// Anchored is the number of machines with an anchor event.
	Anchored int
	// Transitioned is how many of them later downloaded other malware;
	// the CDF is computed over these.
	Transitioned int
	// DeltaDays is the CDF of transition deltas in days.
	DeltaDays *stats.CDF
}

// isOtherMalware reports whether gt is a malicious file outside the
// adware/PUP/undefined group (Figure 5's transition target).
func isOtherMalware(gt dataset.GroundTruth) bool {
	if gt.Label != dataset.LabelMalicious {
		return false
	}
	switch gt.Type {
	case dataset.TypeAdware, dataset.TypePUP, dataset.TypeUndefined:
		return false
	}
	return true
}

// Transitions computes one Figure 5 curve.
func (a *Analyzer) Transitions(source TransitionSource) TransitionStats {
	events := a.store.Events()
	out := TransitionStats{Source: source, DeltaDays: &stats.CDF{}}
	for _, m := range a.store.Machines() {
		idxs := a.store.EventsForMachine(m)
		anchorAt := -1
		disqualified := false
		for pos, i := range idxs {
			gt := a.store.Truth(events[i].File)
			switch source {
			case SourceBenign:
				// A malicious download before any benign anchor
				// disqualifies the machine ("have not been observed to
				// download malicious files in the past").
				if gt.Label == dataset.LabelMalicious {
					disqualified = true
				} else if gt.Label == dataset.LabelBenign {
					anchorAt = pos
				}
			case SourceAdware:
				if gt.Label == dataset.LabelMalicious && gt.Type == dataset.TypeAdware {
					anchorAt = pos
				}
			case SourcePUP:
				if gt.Label == dataset.LabelMalicious && gt.Type == dataset.TypePUP {
					anchorAt = pos
				}
			case SourceDropper:
				if gt.Label == dataset.LabelMalicious && gt.Type == dataset.TypeDropper {
					anchorAt = pos
				}
			}
			if anchorAt >= 0 || disqualified {
				break
			}
		}
		if anchorAt < 0 || disqualified {
			continue
		}
		out.Anchored++
		anchorTime := events[idxs[anchorAt]].Time
		for _, i := range idxs[anchorAt+1:] {
			if !isOtherMalware(a.store.Truth(events[i].File)) {
				continue
			}
			delta := events[i].Time.Sub(anchorTime).Hours() / 24
			out.Transitioned++
			out.DeltaDays.Add(delta)
			break
		}
	}
	out.DeltaDays.Finalize()
	return out
}

// AllTransitions computes all four Figure 5 curves.
func (a *Analyzer) AllTransitions() []TransitionStats {
	sources := []TransitionSource{SourceBenign, SourceAdware, SourcePUP, SourceDropper}
	out := make([]TransitionStats, 0, len(sources))
	for _, s := range sources {
		out = append(out, a.Transitions(s))
	}
	return out
}
