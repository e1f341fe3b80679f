package textproc

import (
	"slices"
	"sort"
)

// TermCount is one (word, frequency) pair of a bag-of-words document.
type TermCount struct {
	Word  WordID
	Count int32
}

// Document is a bag of words: distinct terms with their in-document
// frequencies γ(w, e), sorted by WordID for deterministic iteration and
// fast merge operations.
type Document struct {
	Terms []TermCount
	Len   int // total token count including repeats
}

// NewDocument builds a Document from a token ID sequence. It counts the
// words on a sorted copy of ids, kept on the stack for a document of up to
// 128 tokens, so what it allocates is the term list alone.
func NewDocument(ids []WordID) Document {
	var stack [128]WordID
	sorted := append(stack[:0], ids...)
	slices.Sort(sorted)
	distinct := 0
	for i, id := range sorted {
		if i == 0 || id != sorted[i-1] {
			distinct++
		}
	}
	terms := make([]TermCount, 0, distinct)
	for i, id := range sorted {
		if i == 0 || id != sorted[i-1] {
			terms = append(terms, TermCount{Word: id})
		}
		terms[len(terms)-1].Count++
	}
	return Document{Terms: terms, Len: len(ids)}
}

// Distinct returns the number of distinct words |V_e|.
func (d Document) Distinct() int { return len(d.Terms) }

// Count returns γ(w, e), the frequency of w in the document (0 if absent).
func (d Document) Count(w WordID) int32 {
	i := sort.Search(len(d.Terms), func(i int) bool { return d.Terms[i].Word >= w })
	if i < len(d.Terms) && d.Terms[i].Word == w {
		return d.Terms[i].Count
	}
	return 0
}

// Contains reports whether w appears in the document.
func (d Document) Contains(w WordID) bool { return d.Count(w) > 0 }

// Overlap returns the number of distinct words shared by d and o.
// Both term lists are sorted, so this is a linear merge.
func (d Document) Overlap(o Document) int {
	i, j, n := 0, 0, 0
	for i < len(d.Terms) && j < len(o.Terms) {
		switch {
		case d.Terms[i].Word < o.Terms[j].Word:
			i++
		case d.Terms[i].Word > o.Terms[j].Word:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Jaccard returns the Jaccard similarity of the distinct word sets.
func (d Document) Jaccard(o Document) float64 {
	inter := d.Overlap(o)
	union := len(d.Terms) + len(o.Terms) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Corpus is a set of documents sharing one vocabulary.
type Corpus struct {
	Vocab *Vocabulary
	Docs  []Document
}

// NewCorpus tokenizes and interns raw texts into a corpus.
func NewCorpus(tok *Tokenizer, texts []string) *Corpus {
	c := &Corpus{Vocab: NewVocabulary()}
	for _, text := range texts {
		c.AddText(tok, text)
	}
	return c
}

// AddText tokenizes one text, updates vocabulary statistics and appends the
// document. It returns the document index.
func (c *Corpus) AddText(tok *Tokenizer, text string) int {
	tokens := tok.Tokenize(text)
	ids := make([]WordID, len(tokens))
	for i, t := range tokens {
		ids[i] = c.Vocab.Add(t)
	}
	c.Vocab.ObserveDoc(ids)
	c.Docs = append(c.Docs, NewDocument(ids))
	return len(c.Docs) - 1
}

// AvgLen returns the average token count per document.
func (c *Corpus) AvgLen() float64 {
	if len(c.Docs) == 0 {
		return 0
	}
	var total int
	for _, d := range c.Docs {
		total += d.Len
	}
	return float64(total) / float64(len(c.Docs))
}
