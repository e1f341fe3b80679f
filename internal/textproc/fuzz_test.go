package textproc

import (
	"testing"
	"unicode/utf8"
)

// FuzzTokenize asserts the tokenizer's invariants on arbitrary input: it
// never panics, never returns stop words or empty/oversized tokens, is
// idempotent under re-tokenization of its own output, and AppendIDs gives
// the IDs of Tokenize followed by Vocabulary.ID — against a vocabulary of
// the seeds' tokens and one holding every other token of the input, so
// lookups both hit and miss.
func FuzzTokenize(f *testing.F) {
	seeds := []string{
		"",
		"@asroma win but it's @LFC joining @realmadrid in the #UCL final",
		"128-110 !!! ... ???",
		"ünïcödé wörds über allés",
		"日本語のテキスト mixed with english",
		"a#b@c d'e’f",
		"\x00\xff\xfe broken bytes",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	tok := NewTokenizer()
	stop := defaultStopwords()
	seedVocab := NewVocabulary()
	for _, s := range seeds {
		for _, w := range tok.Tokenize(s) {
			seedVocab.Add(w)
		}
	}
	f.Fuzz(func(t *testing.T, input string) {
		tokens := tok.Tokenize(input)
		for _, w := range tokens {
			if w == "" {
				t.Fatal("empty token")
			}
			n := len([]rune(w))
			if n < 2 || n > 32 {
				t.Fatalf("token %q length %d outside [2,32]", w, n)
			}
			if _, bad := stop[w]; bad {
				t.Fatalf("stop word %q returned", w)
			}
			if !utf8.ValidString(w) {
				t.Fatalf("invalid UTF-8 token %q", w)
			}
		}
		// Idempotence: re-tokenizing the joined output returns the same
		// tokens (tokens contain no separators).
		joined := ""
		for i, w := range tokens {
			if i > 0 {
				joined += " "
			}
			joined += w
		}
		again := tok.Tokenize(joined)
		if len(again) != len(tokens) {
			t.Fatalf("not idempotent: %v vs %v", tokens, again)
		}
		for i := range tokens {
			if again[i] != tokens[i] {
				t.Fatalf("not idempotent at %d: %v vs %v", i, tokens, again)
			}
		}
		alternate := NewVocabulary()
		for i := 0; i < len(tokens); i += 2 {
			alternate.Add(tokens[i])
		}
		for _, v := range []*Vocabulary{seedVocab, alternate} {
			var want []WordID
			for _, w := range tokens {
				if id, ok := v.ID(w); ok {
					want = append(want, id)
				}
			}
			got := tok.AppendIDs(nil, input, v)
			if len(got) != len(want) {
				t.Fatalf("AppendIDs(%q) = %v, want %v", input, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("AppendIDs(%q) = %v, want %v", input, got, want)
				}
			}
		}
	})
}
