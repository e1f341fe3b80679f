package main

import (
	"io"
	"strings"
	"testing"
)

// A misspelt -exp must fail naming the valid experiments (it used to match
// no branch, run nothing and exit 0), and every listed name must pass. The
// service experiments benchmark/ replaced are errors like any other typo.
func TestExperimentNameChecked(t *testing.T) {
	for _, gone := range []string{"nosuch", "persist", "engine", "ingest", "tenancy", "concurrent"} {
		err := run(nil, gone, io.Discard, 0, 0)
		if err == nil {
			t.Fatalf("run accepted the unknown experiment name %q", gone)
		}
		for _, name := range experimentNames {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("-exp %s: error %q does not list valid name %q", gone, err, name)
			}
		}
	}
	for _, name := range experimentNames {
		if err := checkExperiment(name); err != nil {
			t.Errorf("listed name rejected: %v", err)
		}
	}
	if err := checkExperiment("overhead"); err != nil {
		t.Errorf("overhead must stay a valid experiment: %v", err)
	}
}
