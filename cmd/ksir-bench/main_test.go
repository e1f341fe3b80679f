package main

import (
	"io"
	"strings"
	"testing"
)

// A misspelt -exp must fail naming the valid experiments (it used to match
// no branch, run nothing and exit 0), and every listed name must pass.
func TestExperimentNameChecked(t *testing.T) {
	err := run(nil, "nosuch", io.Discard, "", true)
	if err == nil {
		t.Fatal("run accepted an unknown experiment name")
	}
	for _, name := range experimentNames {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid name %q", err, name)
		}
		if err := checkExperiment(name); err != nil {
			t.Errorf("listed name rejected: %v", err)
		}
	}
}
