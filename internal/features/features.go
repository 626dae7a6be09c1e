// Package features extracts the eight easy-to-measure features of
// Table XV from download events: the downloaded file's signer, CA and
// packer; the downloading process's signer, CA and packer; the process
// type; and the Alexa rank of the download domain. These feature vectors
// feed the PART rule learner.
package features

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/reputation"
)

// None is the nominal value used when a file is unsigned or unpacked;
// rules like "IF (file is not signed) ..." from the paper are conditions
// on this value.
const None = "(none)"

// UnrankedValue is the Alexa-rank feature value for domains outside the
// top million: numerically beyond any real rank, so learned thresholds
// like "rank above 100K" treat unranked domains as maximally unpopular.
const UnrankedValue = 2_000_000

// Vector is the feature representation of one download event.
type Vector struct {
	FileSigner    string
	FileCA        string
	FilePacker    string
	ProcessSigner string
	ProcessCA     string
	ProcessPacker string
	ProcessType   string
	// AlexaRank is the rank of the download domain; 0 means unranked,
	// which the learner treats as "beyond the top million".
	AlexaRank int
}

// AttributeNames lists the features in canonical order. The first seven
// are nominal; the last is numeric.
var AttributeNames = []string{
	"file's signer",
	"file's CA",
	"file's packer",
	"process's signer",
	"process's CA",
	"process's packer",
	"process's type",
	"download domain's Alexa rank",
}

// NumNominal is the number of nominal attributes.
const NumNominal = 7

// Nominal returns the i-th nominal attribute value (i in [0,7)).
func (v *Vector) Nominal(i int) string {
	switch i {
	case 0:
		return v.FileSigner
	case 1:
		return v.FileCA
	case 2:
		return v.FilePacker
	case 3:
		return v.ProcessSigner
	case 4:
		return v.ProcessCA
	case 5:
		return v.ProcessPacker
	case 6:
		return v.ProcessType
	default:
		return ""
	}
}

// Extractor builds vectors from store events.
type Extractor struct {
	store  *dataset.Store
	oracle *reputation.Oracle
}

// NewExtractor builds an Extractor over a store and reputation oracle.
func NewExtractor(store *dataset.Store, oracle *reputation.Oracle) (*Extractor, error) {
	if store == nil {
		return nil, fmt.Errorf("features: nil store")
	}
	if oracle == nil {
		return nil, fmt.Errorf("features: nil oracle")
	}
	return &Extractor{store: store, oracle: oracle}, nil
}

// orNone maps empty metadata strings to the None marker.
func orNone(s string) string {
	if s == "" {
		return None
	}
	return s
}

// processTypeName renders the process-type feature: the category, with
// browsers kept as a single class (matching Table XV's "browser, windows
// process, etc.").
func processTypeName(meta *dataset.FileMeta) string {
	if meta == nil {
		return "unknown"
	}
	return meta.Category.String()
}

// Vector extracts the features of one event: two file-metadata lookups
// and one rank lookup, without allocation and — the store being frozen,
// as every serving store is — without a lock.
func (e *Extractor) Vector(ev *dataset.DownloadEvent) (Vector, error) {
	if ev == nil {
		return Vector{}, fmt.Errorf("features: nil event")
	}
	fileMeta := e.store.File(ev.File)
	if fileMeta == nil {
		return Vector{}, fmt.Errorf("features: no metadata for file %s", ev.File)
	}
	procMeta := e.store.File(ev.Process)
	rank := e.oracle.AlexaRank(ev.Domain)
	if rank == 0 {
		rank = UnrankedValue
	}
	v := Vector{
		FileSigner:  orNone(fileMeta.Signer),
		FileCA:      orNone(fileMeta.CA),
		FilePacker:  orNone(fileMeta.Packer),
		ProcessType: processTypeName(procMeta),
		AlexaRank:   rank,
	}
	if procMeta != nil {
		v.ProcessSigner = orNone(procMeta.Signer)
		v.ProcessCA = orNone(procMeta.CA)
		v.ProcessPacker = orNone(procMeta.Packer)
	} else {
		v.ProcessSigner, v.ProcessCA, v.ProcessPacker = None, None, None
	}
	return v, nil
}

// Instance is a labeled feature vector for one (file, event) pair.
type Instance struct {
	Vector
	File      dataset.FileHash
	Malicious bool
}

// Instances builds one labeled instance per event whose file has strict
// benign or malicious ground truth (likely-* and unknown files are
// excluded from training/testing, as in the paper). Event indexes refer
// to store.Events().
func (e *Extractor) Instances(eventIdx []int) ([]Instance, error) {
	events := e.store.Events()
	var out []Instance
	for _, i := range eventIdx {
		if i < 0 || i >= len(events) {
			return nil, fmt.Errorf("features: event index %d out of range", i)
		}
		ev := &events[i]
		label := e.store.Label(ev.File)
		if label != dataset.LabelBenign && label != dataset.LabelMalicious {
			continue
		}
		v, err := e.Vector(ev)
		if err != nil {
			return nil, err
		}
		out = append(out, Instance{
			Vector:    v,
			File:      ev.File,
			Malicious: label == dataset.LabelMalicious,
		})
	}
	return out, nil
}

// UnknownInstances builds one unlabeled instance per event whose file is
// unknown; Malicious is left false and meaningless.
func (e *Extractor) UnknownInstances(eventIdx []int) ([]Instance, error) {
	events := e.store.Events()
	var out []Instance
	for _, i := range eventIdx {
		if i < 0 || i >= len(events) {
			return nil, fmt.Errorf("features: event index %d out of range", i)
		}
		ev := &events[i]
		if e.store.Label(ev.File) != dataset.LabelUnknown {
			continue
		}
		v, err := e.Vector(ev)
		if err != nil {
			return nil, err
		}
		out = append(out, Instance{Vector: v, File: ev.File})
	}
	return out, nil
}
