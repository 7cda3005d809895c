package lint

import (
	"go/token"
	"go/types"
)

// NewStdImporter returns a fresh standard-library importer with its own
// file set, sharing nothing with the process-wide one.
func NewStdImporter() types.Importer { return newStdImporter(token.NewFileSet()) }
