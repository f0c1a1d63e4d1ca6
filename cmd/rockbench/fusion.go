package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/eval"
)

// runFusion is the -fusion mode: it reruns the adversarial grid under the
// SLM-only and the fused configuration and writes the paired scores
// (ACC_fusion.json). The fusion contract (fused >= SLM everywhere,
// strictly better on >= 3 hard modes) gates the run, and with a floors
// file so do the checked-in v2 floors — any regression exits non-zero.
func runFusion(accPath, floorsPath string) {
	fmt.Println("== fusion: SLM-only vs slm+subtype on the adversarial grid ==")
	rep, err := eval.RunFusionGrid(context.Background(), benchConfig())
	if err != nil {
		fatal(err)
	}
	fmt.Print(eval.FusionTable(rep))
	writeJSON(accPath, rep)

	gateErr := eval.CheckFusion(rep, 3)
	if floorsPath != "" {
		floors, err := eval.LoadFloors(floorsPath)
		if err != nil {
			fatal(err)
		}
		if ferr := eval.CheckFusionFloors(rep, floors); ferr != nil {
			if gateErr != nil {
				gateErr = fmt.Errorf("%v\n%v", gateErr, ferr)
			} else {
				gateErr = ferr
			}
		}
	}
	if gateErr != nil {
		fmt.Fprintf(os.Stderr, "rockbench: %v\n", gateErr)
		os.Exit(1)
	}
	suffix := ""
	if floorsPath != "" {
		suffix = fmt.Sprintf(", floors OK (%s)", floorsPath)
	}
	fmt.Printf("  fusion contract OK%s\n", suffix)
}
