// Command cereszbench regenerates the paper's evaluation tables and
// figures (HPDC'24, §4–§5) on the simulated substrate.
//
// Usage:
//
//	cereszbench [flags] <experiment>...
//
// Experiments: table1 (covers Tables 1–3), fig7, fig10, fig11, fig12,
// fig13, fig14, table5, fig15, alg1, ablations (design-choice ablations
// beyond the paper's figures), ratedist (§5.4 rate-distortion sweep), or
// "all".
//
// Flags:
//
//	-scale small|medium|full   dataset scale (default small)
//	-seed N                    generator seed (default 7)
//	-maxfields N               fields per dataset (0 = all)
//	-json                      emit one JSON object per experiment instead
//	                           of formatted tables
//	-debug-addr host:port      serve net/http/pprof and Prometheus text
//	                           metrics (/debug/metrics) while running
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"ceresz/internal/datasets"
	"ceresz/internal/experiments"
	"ceresz/internal/stages"
	"ceresz/internal/telemetry"
)

func main() {
	scale := flag.String("scale", "small", "dataset scale: small, medium or full")
	seed := flag.Int64("seed", 7, "dataset generator seed")
	maxFields := flag.Int("maxfields", 0, "limit fields per dataset (0 = all)")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON results (one object per experiment)")
	debugAddr := flag.String("debug-addr", "", "serve pprof and /debug/metrics on this address (e.g. localhost:6060)")
	flag.Parse()

	cfg := experiments.Config{Seed: *seed, MaxFieldsPerDataset: *maxFields}
	switch *scale {
	case "small":
		cfg.Scale = datasets.Small
	case "medium":
		cfg.Scale = datasets.Medium
	case "full":
		cfg.Scale = datasets.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	if *debugAddr != "" {
		telemetry.ServeDebug(*debugAddr, telemetry.Default, os.Stderr)
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"all"}
	}
	known := []string{"table1", "fig7", "fig10", "fig11", "fig12", "fig13", "fig14", "table5", "fig15", "alg1", "ablations", "ratedist", "util", "quality", "extras", "check"}
	var todo []string
	for _, a := range args {
		if a == "all" {
			todo = known
			break
		}
		ok := false
		for _, k := range known {
			if a == k {
				ok = true
				break
			}
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have %v and \"all\")\n", a, known)
			os.Exit(2)
		}
		todo = append(todo, a)
	}

	for _, exp := range todo {
		if err := run(os.Stdout, exp, cfg, *asJSON); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", exp, err)
			os.Exit(1)
		}
	}
}

// run executes one experiment and emits it to out either as a formatted
// table or, with -json, as a single {"experiment": ..., "result": ...}
// JSON object per line.
func run(out io.Writer, exp string, cfg experiments.Config, asJSON bool) error {
	var result any
	var print func(io.Writer)
	var checkErr error
	switch exp {
	case "table1":
		rows, err := experiments.StageProfiles(cfg)
		if err != nil {
			return err
		}
		result = rows
		print = func(w io.Writer) { experiments.PrintStageProfiles(w, rows) }
	case "fig7":
		r, err := experiments.Fig7(cfg)
		if err != nil {
			return err
		}
		result = r
		print = func(w io.Writer) { experiments.PrintFig7(w, r) }
	case "fig10":
		r, err := experiments.Fig10(cfg)
		if err != nil {
			return err
		}
		result = r
		print = func(w io.Writer) { experiments.PrintFig10(w, r) }
	case "fig11":
		r, err := experiments.Throughput(cfg, stages.Compress)
		if err != nil {
			return err
		}
		result = r
		print = func(w io.Writer) { experiments.PrintThroughput(w, r) }
	case "fig12":
		r, err := experiments.Throughput(cfg, stages.Decompress)
		if err != nil {
			return err
		}
		result = r
		print = func(w io.Writer) { experiments.PrintThroughput(w, r) }
	case "fig13":
		r, err := experiments.Fig13(cfg)
		if err != nil {
			return err
		}
		result = r
		print = func(w io.Writer) { experiments.PrintFig13(w, r) }
	case "fig14":
		r, err := experiments.Fig14(cfg)
		if err != nil {
			return err
		}
		result = r
		print = func(w io.Writer) { experiments.PrintFig14(w, r) }
	case "table5":
		r, err := experiments.Table5(cfg)
		if err != nil {
			return err
		}
		result = r
		print = func(w io.Writer) { experiments.PrintTable5(w, r) }
	case "fig15":
		r, err := experiments.Fig15(cfg)
		if err != nil {
			return err
		}
		result = r
		print = func(w io.Writer) { experiments.PrintFig15(w, r) }
	case "alg1":
		r, err := experiments.Alg1(cfg)
		if err != nil {
			return err
		}
		result = r
		print = func(w io.Writer) { experiments.PrintAlg1(w, r) }
	case "check":
		r, err := experiments.Check(cfg)
		if err != nil {
			return err
		}
		result = r
		print = func(w io.Writer) { experiments.PrintCheck(w, r) }
		if !r.OK() {
			checkErr = fmt.Errorf("self-check failed")
		}
	case "extras":
		r, err := experiments.Extras(cfg)
		if err != nil {
			return err
		}
		result = r
		print = func(w io.Writer) { experiments.PrintExtras(w, r) }
	case "quality":
		r, err := experiments.Quality(cfg)
		if err != nil {
			return err
		}
		result = r
		print = func(w io.Writer) { experiments.PrintQuality(w, r) }
	case "util":
		r, err := experiments.Utilization(cfg)
		if err != nil {
			return err
		}
		result = r
		print = func(w io.Writer) { experiments.PrintUtilization(w, r) }
	case "ratedist":
		r, err := experiments.RateDistortion(cfg)
		if err != nil {
			return err
		}
		result = r
		print = func(w io.Writer) { experiments.PrintRateDistortion(w, r) }
	case "ablations":
		blocks, err := experiments.BlockSizeAblation(cfg)
		if err != nil {
			return err
		}
		headers, err := experiments.HeaderAblation(cfg)
		if err != nil {
			return err
		}
		enc, err := experiments.EncodingAblation(cfg)
		if err != nil {
			return err
		}
		zero, err := experiments.ZeroBlockAblation(cfg)
		if err != nil {
			return err
		}
		tuner, err := experiments.Tuner(cfg)
		if err != nil {
			return err
		}
		result = map[string]any{
			"blocks": blocks, "headers": headers, "encodings": enc,
			"zero": zero, "tuner": tuner,
		}
		print = func(w io.Writer) { experiments.PrintAblations(w, blocks, headers, enc, zero, tuner) }
	default:
		return fmt.Errorf("unhandled experiment %q", exp)
	}

	if asJSON {
		enc := json.NewEncoder(out)
		if err := enc.Encode(map[string]any{"experiment": exp, "result": result}); err != nil {
			return err
		}
	} else {
		print(out)
	}
	return checkErr
}
