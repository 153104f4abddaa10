package main

import (
	"testing"

	"repro/internal/lint/checks/testdata/src/api"
)

func TestOnly(t *testing.T) {
	if api.TestOnly() != 1 {
		t.Fatal("TestOnly")
	}
}
