package main

import (
	"strings"
	"testing"
)

// TestResumeHintNamesCheckpointDir checks that an interrupted run is told to
// rerun with the checkpoint directory it used, not the -resume default.
func TestResumeHintNamesCheckpointDir(t *testing.T) {
	if got := resumeHint("mydir"); !strings.Contains(got, "-checkpoint mydir") {
		t.Errorf("hint after -checkpoint mydir = %q, want it to name -checkpoint mydir", got)
	}
	if got := resumeHint(defaultCheckpointDir); !strings.Contains(got, "-checkpoint "+defaultCheckpointDir) {
		t.Errorf("hint after -resume = %q, want it to name -checkpoint %s", got, defaultCheckpointDir)
	}
	if got := resumeHint(""); !strings.Contains(got, "-checkpoint DIR") {
		t.Errorf("hint without a checkpoint = %q, want it to suggest -checkpoint DIR", got)
	}
}
