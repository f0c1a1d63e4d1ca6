package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// writeJSON marshals an accuracy report to path (indented, trailing
// newline) — the sink -synth and -fusion share. A "" path is a no-op so
// modes can pass the -json flag through unchecked.
func writeJSON(path string, v any) {
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("  wrote %s\n", path)
}
