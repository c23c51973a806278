package main

import (
	"context"
	"testing"

	"casa/internal/cli/clitest"
)

func TestConflictMatrix(t *testing.T) {
	clitest.ConflictMatrix(t, context.Background(), "casa-sim", run)
}
