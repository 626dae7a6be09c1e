// Package features extracts the eight easy-to-measure features of
// Table XV from download events: the downloaded file's signer, CA and
// packer; the downloading process's signer, CA and packer; the process
// type; and the Alexa rank of the download domain. These feature vectors
// feed the PART rule learner.
package features

import (
	"errors"
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

// Extractor builds vectors from download events. What Vector reads of
// the store and the oracle is compiled once, by NewExtractor, into a
// servingContext; the store itself serves only Instances and
// UnknownInstances, and a Serving view does without it.
type Extractor struct {
	store *dataset.Store // nil in a Serving view
	ctx   *servingContext
}

// NewExtractor compiles the serving context of a frozen store and its
// reputation oracle. An unfrozen store is refused: the context is a
// snapshot, and a later write would never reach it.
func NewExtractor(store *dataset.Store, oracle *reputation.Oracle) (*Extractor, error) {
	if store == nil {
		return nil, fmt.Errorf("features: nil store")
	}
	if oracle == nil {
		return nil, fmt.Errorf("features: nil oracle")
	}
	if !store.Frozen() {
		return nil, fmt.Errorf("features: store is not frozen; call Freeze before NewExtractor")
	}
	ctx, err := compileContext(store, oracle)
	if err != nil {
		return nil, err
	}
	return &Extractor{store: store, ctx: ctx}, nil
}

// Serving returns a view of the extractor that keeps the compiled
// context and not the store: Vector works as before, Instances and
// UnknownInstances return an error. A daemon that has its rules hands
// this to the engine and lets go of the corpus.
func (e *Extractor) Serving() *Extractor { return &Extractor{ctx: e.ctx} }

// orNone maps empty metadata strings to the None marker.
func orNone(s string) string {
	if s == "" {
		return None
	}
	return s
}

// Vector extracts the features of one event: two file lookups and one
// rank lookup in the compiled context, without allocation or lock. The
// process type is the category name, with browsers kept as a single
// class (matching Table XV's "browser, windows process, etc."), and
// "unknown" for a process the store never saw.
func (e *Extractor) Vector(ev *dataset.DownloadEvent) (Vector, error) {
	if ev == nil {
		return Vector{}, fmt.Errorf("features: nil event")
	}
	c := e.ctx
	file, ok := c.files.lookup(string(ev.File))
	if !ok {
		return Vector{}, fmt.Errorf("features: no metadata for file %s", ev.File)
	}
	proc, ok := c.files.lookup(string(ev.Process))
	if !ok {
		proc = c.unknownProcess
	}
	rank, ok := c.domains.lookup(ev.Domain)
	if !ok {
		rank = UnrankedValue
	}
	return Vector{
		FileSigner:    c.values[file.signer],
		FileCA:        c.values[file.ca],
		FilePacker:    c.values[file.packer],
		ProcessSigner: c.values[proc.signer],
		ProcessCA:     c.values[proc.ca],
		ProcessPacker: c.values[proc.packer],
		ProcessType:   c.values[proc.category],
		AlexaRank:     rank,
	}, nil
}

// Instance is a labeled feature vector for one (file, event) pair.
type Instance struct {
	Vector
	File      dataset.FileHash
	Malicious bool
}

var errServingView = errors.New("features: a Serving view has no store to take instances from")

// Instances builds one labeled instance per event whose file has strict
// benign or malicious ground truth (likely-* and unknown files are
// excluded from training/testing, as in the paper). Event indexes refer
// to store.Events().
func (e *Extractor) Instances(eventIdx []int) ([]Instance, error) {
	if e.store == nil {
		return nil, errServingView
	}
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
	if e.store == nil {
		return nil, errServingView
	}
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
