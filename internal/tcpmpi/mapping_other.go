//go:build !unix

package tcpmpi

import (
	"errors"
	"runtime"
)

// Two processes share a ring through a file both map, which this package
// knows how to do on unix only. Elsewhere it builds — the solver and its
// in-process transport do not need it — and Connect fails.
var errNoMapping = errors.New("tcpmpi: no shared-memory rings on " + runtime.GOOS)

func createMapping() ([]byte, string, error) { return nil, "", errNoMapping }
func openMapping(string) ([]byte, error)     { return nil, errNoMapping }
func unmap([]byte)                           {}
