package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"landmarkdht/internal/metric"
)

// CorpusConfig parameterizes the synthetic substitute for the paper's
// TREC-1,2-AP corpus (§4.3). The defaults reproduce the corpus-level
// statistics the paper reports: 157,021 documents, 233,640 distinct
// terms, and the per-document vector-size distribution of Table 2.
type CorpusConfig struct {
	// Docs is the number of documents (paper: 157,021).
	Docs int
	// Vocab is the number of distinct terms (paper: 233,640).
	Vocab int
	// Topics is the number of latent topics documents cluster around
	// (the AP newswire is strongly topical; 100 mirrors the 50 TREC
	// query topics plus background diversity).
	Topics int
	// TopicTerms is the size of each topic's characteristic term
	// block.
	TopicTerms int
	// TopicMix is the fraction of a document's terms drawn from its
	// topic block (the rest are background Zipf terms).
	TopicMix float64
	// SizeMedian / SizeSigma parameterize the log-normal distinct-term
	// count per document; defaults are fitted to Table 2 (median 146,
	// 95th percentile 293).
	SizeMedian float64
	SizeSigma  float64
	// SizeMin / SizeMax clamp the vector size (Table 2: 1 and 676).
	SizeMin, SizeMax int
	// Seed drives the deterministic generator.
	Seed int64
}

// DefaultCorpusConfig returns the paper-scale configuration.
func DefaultCorpusConfig() CorpusConfig {
	return CorpusConfig{
		Docs:       157_021,
		Vocab:      233_640,
		Topics:     100,
		TopicTerms: 400,
		TopicMix:   0.6,
		SizeMedian: 146,
		SizeSigma:  0.423,
		SizeMin:    1,
		SizeMax:    676,
		Seed:       1,
	}
}

func (c *CorpusConfig) fillDefaults() {
	d := DefaultCorpusConfig()
	if c.Topics <= 0 {
		c.Topics = d.Topics
	}
	if c.TopicTerms <= 0 {
		c.TopicTerms = d.TopicTerms
	}
	if c.TopicMix <= 0 || c.TopicMix > 1 {
		c.TopicMix = d.TopicMix
	}
	if c.SizeMedian <= 0 {
		c.SizeMedian = d.SizeMedian
	}
	if c.SizeSigma <= 0 {
		c.SizeSigma = d.SizeSigma
	}
	if c.SizeMin <= 0 {
		c.SizeMin = d.SizeMin
	}
	if c.SizeMax <= 0 {
		c.SizeMax = d.SizeMax
	}
}

// Corpus is the generated document collection with TF/IDF weights.
type Corpus struct {
	cfg CorpusConfig
	// Docs are the TF/IDF-weighted document vectors.
	Docs []metric.SparseVector
	// Topic is the latent topic of each document.
	Topic []int
	// topicBlocks[t] is the start of topic t's term block.
	topicBlocks []uint32
	rngState    int64
}

// NewCorpus generates the corpus. Term occurrences follow a Zipf law
// over the vocabulary; each document additionally draws TopicMix of
// its terms from its topic's characteristic block, giving the corpus
// the clustered structure newswire text has. Weights are TF·IDF with
// IDF computed over the generated collection, matching the §4.3
// weighting scheme.
func NewCorpus(cfg CorpusConfig) (*Corpus, error) {
	if cfg.Docs <= 0 || cfg.Vocab <= 0 {
		return nil, fmt.Errorf("dataset: Docs and Vocab must be positive (got %d, %d)", cfg.Docs, cfg.Vocab)
	}
	cfg.fillDefaults()
	if cfg.Topics*cfg.TopicTerms > cfg.Vocab {
		return nil, fmt.Errorf("dataset: %d topics of %d terms exceed vocabulary %d",
			cfg.Topics, cfg.TopicTerms, cfg.Vocab)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, 1.07, 1, uint64(cfg.Vocab-1))

	// Topic blocks occupy the mid-frequency region of the id space so
	// topical terms are neither stop-word-frequent nor hapax-rare.
	blocks := make([]uint32, cfg.Topics)
	blockRegion := cfg.Vocab / 4
	for t := range blocks {
		blocks[t] = uint32(blockRegion + t*cfg.TopicTerms)
	}

	type posting struct {
		idx []uint32
		tf  []float64
	}
	postings := make([]posting, cfg.Docs)
	topic := make([]int, cfg.Docs)
	df := make([]int32, cfg.Vocab)

	terms := make(map[uint32]float64, 256)
	for d := 0; d < cfg.Docs; d++ {
		t := rng.Intn(cfg.Topics)
		topic[d] = t
		size := docSize(rng, cfg)
		clear(terms)
		for len(terms) < size {
			var term uint32
			if rng.Float64() < cfg.TopicMix {
				term = blocks[t] + uint32(rng.Intn(cfg.TopicTerms))
			} else {
				term = uint32(zipf.Uint64())
			}
			// Term frequency: most terms appear once or twice; a few
			// repeat many times (geometric-ish tail).
			tf := 1 + math.Floor(rng.ExpFloat64()*1.5)
			terms[term] += tf
		}
		p := posting{idx: make([]uint32, 0, len(terms)), tf: make([]float64, 0, len(terms))}
		for term := range terms {
			p.idx = append(p.idx, term)
		}
		sort.Slice(p.idx, func(i, j int) bool { return p.idx[i] < p.idx[j] })
		for _, term := range p.idx {
			p.tf = append(p.tf, terms[term])
			df[term]++
		}
		postings[d] = p
	}

	// Apply IDF.
	n := float64(cfg.Docs)
	docs := make([]metric.SparseVector, cfg.Docs)
	for d, p := range postings {
		val := make([]float64, len(p.idx))
		for i, term := range p.idx {
			idf := math.Log(n / float64(1+df[term]))
			if idf < 0.01 {
				idf = 0.01 // ubiquitous terms keep a token weight
			}
			val[i] = p.tf[i] * idf
		}
		sv, err := metric.NewSparseVector(p.idx, val)
		if err != nil {
			return nil, err
		}
		docs[d] = sv
	}
	return &Corpus{cfg: cfg, Docs: docs, Topic: topic, topicBlocks: blocks, rngState: cfg.Seed}, nil
}

// docSize draws a Table 2 distinct-term count.
func docSize(rng *rand.Rand, cfg CorpusConfig) int {
	s := int(math.Round(cfg.SizeMedian * math.Exp(rng.NormFloat64()*cfg.SizeSigma)))
	if s < cfg.SizeMin {
		s = cfg.SizeMin
	}
	if s > cfg.SizeMax {
		s = cfg.SizeMax
	}
	return s
}

// Queries generates query vectors in the style of the paper's TREC-3
// ad hoc topics: short term vectors (~3.5 unique terms on average)
// drawn from topic blocks, `topics` distinct queries each repeated
// `repeat` times (the paper repeats 50 topics to form 2000 queries).
// The returned slice has length topics*repeat; distinct queries come
// first in each repetition round-robin.
func (c *Corpus) Queries(topics, repeat int, seed int64) ([]metric.SparseVector, error) {
	if topics <= 0 || repeat <= 0 {
		return nil, fmt.Errorf("dataset: topics and repeat must be positive")
	}
	if topics > c.cfg.Topics {
		return nil, fmt.Errorf("dataset: %d query topics exceed corpus topics %d", topics, c.cfg.Topics)
	}
	rng := rand.New(rand.NewSource(seed))
	distinct := make([]metric.SparseVector, topics)
	for t := 0; t < topics; t++ {
		// 3 or 4 unique terms, averaging 3.5 (§4.3).
		nTerms := 3 + rng.Intn(2)
		idx := make([]uint32, 0, nTerms)
		val := make([]float64, 0, nTerms)
		seen := map[uint32]bool{}
		for len(idx) < nTerms {
			term := c.topicBlocks[t%c.cfg.Topics] + uint32(rng.Intn(c.cfg.TopicTerms))
			if seen[term] {
				continue
			}
			seen[term] = true
			idx = append(idx, term)
			val = append(val, 1)
		}
		sv, err := metric.NewSparseVector(idx, val)
		if err != nil {
			return nil, err
		}
		distinct[t] = sv
	}
	out := make([]metric.SparseVector, 0, topics*repeat)
	for r := 0; r < repeat; r++ {
		out = append(out, distinct...)
	}
	return out, nil
}

// SizeStats summarizes a document collection's vector sizes in the
// format of the paper's Table 2.
type SizeStats struct {
	Min, P5, P50, P95, Max int
	Mean                   float64
}

// VectorSizeStats computes Table 2 for a document set.
func VectorSizeStats(docs []metric.SparseVector) SizeStats {
	if len(docs) == 0 {
		return SizeStats{}
	}
	sizes := make([]int, len(docs))
	var sum int64
	for i, d := range docs {
		sizes[i] = d.NNZ()
		sum += int64(d.NNZ())
	}
	sort.Ints(sizes)
	pct := func(p float64) int {
		i := int(p * float64(len(sizes)-1))
		return sizes[i]
	}
	return SizeStats{
		Min:  sizes[0],
		P5:   pct(0.05),
		P50:  pct(0.50),
		P95:  pct(0.95),
		Max:  sizes[len(sizes)-1],
		Mean: float64(sum) / float64(len(sizes)),
	}
}

// DistinctTerms counts the number of distinct terms used across the
// collection (the paper reports 233,640).
func DistinctTerms(docs []metric.SparseVector) int {
	seen := make(map[uint32]struct{})
	for _, d := range docs {
		for _, idx := range d.Idx {
			seen[idx] = struct{}{}
		}
	}
	return len(seen)
}
