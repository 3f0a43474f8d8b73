package allowaudit_test

import (
	"testing"

	"landmarkdht/internal/analysis/allowaudit"
	"landmarkdht/internal/analysis/analysistest"
)

func TestAllowaudit(t *testing.T) {
	analysistest.Run(t, allowaudit.Analyzer, "testdata/src/a")
}

func TestAllowauditDeadexport(t *testing.T) {
	analysistest.Run(t, allowaudit.Analyzer, "testdata/src/internal")
}
