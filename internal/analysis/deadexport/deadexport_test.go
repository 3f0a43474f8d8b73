package deadexport_test

import (
	"testing"

	"landmarkdht/internal/analysis/analysistest"
	"landmarkdht/internal/analysis/deadexport"
)

func TestDeadexport(t *testing.T) {
	analysistest.Run(t, deadexport.Analyzer, "testdata/src/internal")
}
