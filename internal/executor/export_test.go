package executor

import (
	"context"

	"bao/internal/planner"
	"bao/internal/storage"
)

// RunReference runs plan through the volcano oracle (reference_test.go)
// for external-package tests, which may import engine.
func (e *Executor) RunReference(plan *planner.Node) ([]storage.Row, error) {
	return e.runReference(context.Background(), plan)
}
