package ksir

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
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
	var buf bytes.Buffer
	// Re-encode the wire struct with a future version.
	mf := modelFile{Version: modelFileVersion + 1, Z: m.tm.Z, V: m.tm.V,
		Phi: m.tm.Phi, PTopic: m.tm.PTopic, Seed: m.seed}
	for i := 0; i < m.vocab.Size(); i++ {
		id := textproc.WordID(i)
		mf.Words = append(mf.Words, m.vocab.Word(id))
		mf.Freq = append(mf.Freq, m.vocab.Freq(id))
		mf.DocFreq = append(mf.DocFreq, m.vocab.DocFreq(id))
	}
	if err := gob.NewEncoder(&buf).Encode(mf); err != nil {
		t.Fatal(err)
	}
	_, err := LoadModel(&buf)
	if !errors.Is(err, ErrModelVersion) {
		t.Errorf("future-version load = %v, want ErrModelVersion", err)
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
