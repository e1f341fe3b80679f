package ksir

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/social-streams/ksir/internal/textproc"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	m := trainTestModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Topics() != m.Topics() || loaded.VocabSize() != m.VocabSize() {
		t.Fatalf("dimensions changed: %d/%d vs %d/%d",
			loaded.Topics(), loaded.VocabSize(), m.Topics(), m.VocabSize())
	}
	// Inference must be identical (same Phi, same seed).
	for _, text := range []string{"goal striker league", "dunk rebound court", "goal dunk"} {
		t1, p1 := m.InferTopics(text)
		t2, p2 := loaded.InferTopics(text)
		if len(t1) != len(t2) {
			t.Fatalf("inference diverged on %q: %v vs %v", text, t1, t2)
		}
		for i := range t1 {
			if t1[i] != t2[i] || p1[i] != p2[i] {
				t.Fatalf("inference diverged on %q: %v/%v vs %v/%v", text, t1, p1, t2, p2)
			}
		}
	}
	// Top words preserved.
	w1, _ := m.TopWords(0, 3)
	w2, _ := loaded.TopWords(0, 3)
	if strings.Join(w1, " ") != strings.Join(w2, " ") {
		t.Errorf("top words changed: %v vs %v", w1, w2)
	}
}

func TestModelSaveLoadFile(t *testing.T) {
	m := trainTestModel(t)
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Topics() != m.Topics() {
		t.Error("round trip via file failed")
	}
	if _, err := LoadModelFile(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	if _, err := LoadModel(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadModel(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

// A model file from another format version fails with the typed sentinel
// (the same one the durability subsystem uses), so callers branch with
// errors.Is instead of matching message strings.
func TestLoadModelVersionMismatchIsTyped(t *testing.T) {
	m := trainTestModel(t)
	// Re-encode the wire struct with a future version.
	mf := wireModel(m)
	mf.Version++
	_, err := LoadModel(encodeModel(t, mf))
	if !errors.Is(err, ErrModelVersion) {
		t.Errorf("future-version load = %v, want ErrModelVersion", err)
	}
}

// wireModel returns m's serialized form, with copies of its φ and p(z).
func wireModel(m *Model) modelFile {
	mf := modelFile{Version: modelFileVersion, Z: m.tm.Z, V: m.tm.V,
		Phi: append([]float64(nil), m.tm.Phi...), PTopic: append([]float64(nil), m.tm.PTopic...), Seed: m.seed}
	for i := 0; i < m.vocab.Size(); i++ {
		id := textproc.WordID(i)
		mf.Words = append(mf.Words, m.vocab.Word(id))
		mf.Freq = append(mf.Freq, m.vocab.Freq(id))
		mf.DocFreq = append(mf.DocFreq, m.vocab.DocFreq(id))
	}
	return mf
}

func encodeModel(t *testing.T, mf modelFile) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(mf); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// A model file whose φ or p(z) holds one value that is not a probability,
// or whose p(z) is not a distribution, is refused as corrupt.
func TestLoadModelRefusesNonProbabilities(t *testing.T) {
	m := trainTestModel(t)
	if _, err := LoadModel(encodeModel(t, wireModel(m))); err != nil {
		t.Fatalf("unmodified model refused: %v", err)
	}
	for _, c := range []struct {
		name string
		edit func(*modelFile)
	}{
		{"NaN φ", func(mf *modelFile) { mf.Phi[3] = math.NaN() }},
		{"infinite φ", func(mf *modelFile) { mf.Phi[0] = math.Inf(1) }},
		{"negative φ", func(mf *modelFile) { mf.Phi[0] = -mf.Phi[0] }},
		{"NaN p(z)", func(mf *modelFile) { mf.PTopic[1] = math.NaN() }},
		{"p(z) sums to 2", func(mf *modelFile) {
			for i := range mf.PTopic {
				mf.PTopic[i] *= 2
			}
		}},
	} {
		mf := wireModel(m)
		c.edit(&mf)
		if _, err := LoadModel(encodeModel(t, mf)); err == nil || !strings.Contains(err.Error(), "corrupt model file") {
			t.Errorf("%s: LoadModel = %v, want a corrupt model file", c.name, err)
		}
	}
}

// TrainModel refuses priors and sweep counts the Gibbs samplers cannot
// use, naming the field, for LDA and BTM alike; before, a negative β
// trained a model that its own Save could not be loaded from.
func TestTrainModelRefusesBadPriors(t *testing.T) {
	texts := corpus(200)
	for _, c := range []struct {
		name  string
		opt   ModelOption
		field string
	}{
		{"negative β", WithPriors(0.5, -0.01), "Beta"},
		{"infinite β", WithPriors(0.5, math.Inf(1)), "Beta"},
		{"negative α", WithPriors(-1, 0.01), "Alpha"},
		{"NaN α", WithPriors(math.NaN(), 0.01), "Alpha"},
		{"negative sweeps", WithIterations(-3), "Iterations"},
	} {
		for _, btm := range []bool{false, true} {
			opts := []ModelOption{WithTopics(2), WithSeed(1), c.opt}
			if btm {
				opts = append(opts, WithBTM())
			}
			if _, err := TrainModel(texts, opts...); err == nil || !strings.Contains(err.Error(), c.field) {
				t.Errorf("%s (BTM %v): TrainModel = %v, want an error naming %s", c.name, btm, err, c.field)
			}
		}
	}
}

func TestLoadedModelServesQueries(t *testing.T) {
	m := trainTestModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(loaded, Options{Window: time.Hour, Bucket: time.Minute, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for i := 0; i < 30; i++ {
		text := "goal striker league"
		if i%2 == 1 {
			text = "dunk rebound playoffs"
		}
		if err := st.Add(Post{ID: int64(i + 1), Time: int64(1 + i*10), Text: text}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(300); err != nil {
		t.Fatal(err)
	}
	res, err := st.Query(context.Background(), Query{K: 3, Keywords: []string{"goal"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Posts) == 0 {
		t.Error("loaded model cannot serve queries")
	}
}
