// Command ttatrain runs the real (repro-scale) accuracy experiment behind
// Fig. 2: it trains reduced-width versions of the paper's models on the
// synthetic SynCIFAR dataset — robust (AugMix-lite + adversarial step)
// for the ResNet family, plain for MobileNetV2 — and measures average
// prediction error on corrupted test streams under No-Adapt, BN-Norm and
// BN-Opt at each adaptation batch size.
//
// Usage:
//
//	ttatrain                       # WRN-AM only, 5 corruptions (quick)
//	ttatrain -models all           # all four models
//	ttatrain -corruptions 15 -stream 1000 -epochs 6   # closer to the paper
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/data"
	"edgetta/internal/study"
	"edgetta/internal/telemetry"
)

func main() {
	modelsFlag := flag.String("models", "WRN-AM", "comma-separated model tags (RXT-AM, WRN-AM, R18-AM-AT, MBV2) or 'all'")
	corruptions := flag.Int("corruptions", 5, "number of corruption families to evaluate (max 15)")
	stream := flag.Int("stream", 600, "test samples per corruption stream")
	epochs := flag.Int("epochs", 4, "training epochs")
	trainSize := flag.Int("train", 1536, "training samples per epoch")
	seed := flag.Int64("seed", 7, "experiment seed")
	ckptDir := flag.String("ckpt", "", "directory for cached checkpoints (reused across runs)")
	severities := flag.Bool("severities", false, "after Fig 2, sweep all 5 severities with BN-Norm (extension: the paper fixes severity 5)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the whole run to this file (bounded buffer; drops past the cap)")
	flag.Parse()

	var runTrace *telemetry.Tracer
	if *traceOut != "" {
		// A whole training run emits far more layer spans than a single
		// kernel trace; raise the buffer bound and report drops instead of
		// growing without limit.
		if runTrace = telemetry.StartTracingLimit(1 << 20); runTrace == nil {
			fmt.Fprintln(os.Stderr, "ttatrain: a trace is already being collected (EDGETTA_TRACE=1?)")
			os.Exit(1)
		}
	}

	tags := strings.Split(*modelsFlag, ",")
	if *modelsFlag == "all" {
		tags = []string{"RXT-AM", "WRN-AM", "R18-AM-AT", "MBV2"}
	}
	n := *corruptions
	if n < 1 {
		n = 1
	}
	if n > len(data.AllCorruptions) {
		n = len(data.AllCorruptions)
	}
	cfg := study.MeasuredConfig{
		Seed: *seed, Epochs: *epochs, TrainSize: *trainSize, StreamSize: *stream,
		CheckpointDir: *ckptDir,
		Corruptions:   data.AllCorruptions[:n],
		LogF: func(format string, args ...any) {
			fmt.Printf("  "+format+"\n", args...)
		},
	}
	var results []*study.MeasuredResult
	for _, tag := range tags {
		start := time.Now()
		r, err := study.RunMeasured(strings.TrimSpace(tag), cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ttatrain:", err)
			os.Exit(1)
		}
		fmt.Printf("  (%s done in %v)\n", tag, time.Since(start).Round(time.Second))
		results = append(results, r)
	}
	fmt.Println()
	fmt.Print(study.FormatMeasured(results, cfg))
	fmt.Println("\nExpected shape (paper Fig. 2): BN-Opt < BN-Norm < No-Adapt;")
	fmt.Println("gains shrink as batch grows; MBV2 (plain training) collapses without adaptation.")

	if *severities {
		fmt.Println("\n--- severity sweep (BN-Norm, extension beyond the paper's fixed severity 5) ---")
		for _, tag := range tags {
			adapter, gen, err := study.TrainedAdapter(strings.TrimSpace(tag), core.BNNorm, cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ttatrain:", err)
				os.Exit(1)
			}
			sw, err := study.RunSeveritySweep(adapter, gen, *seed, *stream/2, 50, cfg.Corruptions)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ttatrain:", err)
				os.Exit(1)
			}
			fmt.Printf("\n%s:\n%s", tag, sw)
		}
	}

	if runTrace != nil {
		telemetry.StopTracing()
		if err := runTrace.WriteFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "ttatrain:", err)
			os.Exit(1)
		}
		fmt.Printf("\ntrace: %s (%d events, %d dropped)\n", *traceOut, runTrace.Len(), runTrace.Dropped())
	}
}
