// Package textproc provides the text-processing substrate for k-SIR:
// tokenization, stop-word removal, vocabulary management, bag-of-words
// documents, and TF-IDF vectorization used by the keyword-based baselines.
package textproc

import (
	"bytes"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokenizer splits raw text into normalized tokens. The zero value is not
// usable; construct one with NewTokenizer.
type Tokenizer struct {
	stopwords map[string]struct{}
	minLen    int
	maxLen    int
}

// TokenizerOption configures a Tokenizer.
type TokenizerOption func(*Tokenizer)

// WithStopwords replaces the default English stop-word list.
func WithStopwords(words []string) TokenizerOption {
	return func(t *Tokenizer) {
		t.stopwords = make(map[string]struct{}, len(words))
		for _, w := range words {
			t.stopwords[strings.ToLower(w)] = struct{}{}
		}
	}
}

// WithTokenLength bounds accepted token lengths in runes. Tokens outside
// [min, max] are treated as noise words and dropped.
func WithTokenLength(min, max int) TokenizerOption {
	return func(t *Tokenizer) {
		t.minLen, t.maxLen = min, max
	}
}

// NewTokenizer returns a Tokenizer with the default English stop-word list
// and token length bounds [2, 32].
func NewTokenizer(opts ...TokenizerOption) *Tokenizer {
	t := &Tokenizer{
		stopwords: defaultStopwords(),
		minLen:    2,
		maxLen:    32,
	}
	for _, opt := range opts {
		opt(t)
	}
	return t
}

// Tokenize lower-cases text, splits it on non-alphanumeric boundaries
// (keeping '#' and '@' prefixes intact so hashtags and mentions survive, as
// the paper's examples rely on them), and drops stop words, pure numbers and
// out-of-length tokens.
func (t *Tokenizer) Tokenize(text string) []string {
	var tokens []string
	var stack [tokenBufBytes]byte
	buf := stack[:0]
	for i := 0; i < len(text); {
		var tok []byte
		if tok, i = t.next(text, i, buf); tok != nil {
			tokens = append(tokens, string(tok))
			buf = tok[:0]
		}
	}
	return tokens
}

// AppendIDs appends to dst the IDs of text's tokens that v knows, in order:
// Tokenize followed by v.ID on each token. It builds no token string — one
// byte buffer serves every token, read in place by the stop-word and
// vocabulary lookups — so what it allocates is dst's growth alone.
func (t *Tokenizer) AppendIDs(dst []WordID, text string, v *Vocabulary) []WordID {
	var stack [tokenBufBytes]byte
	buf := stack[:0]
	for i := 0; i < len(text); {
		var tok []byte
		if tok, i = t.next(text, i, buf); tok != nil {
			if id, ok := v.ids[string(tok)]; ok {
				dst = append(dst, id)
			}
			buf = tok[:0]
		}
	}
	return dst
}

// tokenBufBytes holds any token of the default length bound: at most 33
// runes are written (one past the bound says "too long"), of ≤ 4 bytes.
const tokenBufBytes = 4 * 33

// next scans text from byte offset i and returns the next token Tokenize
// keeps, built in buf's storage (lower-cased, apostrophes dropped), and the
// offset just past it; tok is nil when text ends first. A token longer than
// maxLen runes is dropped, so its runes past the bound are not written.
func (t *Tokenizer) next(text string, i int, buf []byte) (tok []byte, end int) {
	buf = buf[:0]
	runes := 0
	for i < len(text) {
		r, size := rune(text[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(text[i:])
		}
		i += size
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			if runes <= t.maxLen {
				buf = utf8.AppendRune(buf, unicode.ToLower(r))
			}
			runes++
		case (r == '#' || r == '@') && runes == 0:
			buf = append(buf, byte(r))
			runes++
		case r == '\'' || r == '’':
			// Drop apostrophes in-place: "it's" -> "its".
		default:
			if runes > 0 {
				if t.keep(buf, runes) {
					return buf, i
				}
				buf, runes = buf[:0], 0
			}
		}
	}
	if runes > 0 && t.keep(buf, runes) {
		return buf, i
	}
	return nil, i
}

// keep reports whether a token of the given rune count survives: inside
// the length bounds, not a stop word (ignoring its '#'/'@' prefix) and not
// a pure number.
func (t *Tokenizer) keep(tok []byte, runes int) bool {
	if runes < t.minLen || runes > t.maxLen {
		return false
	}
	if _, ok := t.stopwords[string(bytes.TrimLeft(tok, "#@"))]; ok {
		return false
	}
	return !isNumeric(tok)
}

func isNumeric(b []byte) bool {
	for len(b) > 0 {
		r, size := utf8.DecodeRune(b)
		if !unicode.IsDigit(r) {
			return false
		}
		b = b[size:]
	}
	return true
}
