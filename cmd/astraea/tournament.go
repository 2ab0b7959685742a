package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"repro/internal/cc"
	"repro/internal/tournament"
)

// cmdTournament runs every registered congestion-control scheme through a
// fixed grid of scenario families (incast fan-in, oscillating bandwidth,
// steady dumbbell, lossy path) and ranks them by throughput × Jain
// fairness × delay — the Astraea reward axes. Each family pins one
// deterministic scenario per scheme, so a cell isolates the controller;
// the grid fans across the batch pool and the ranking is byte-identical
// for any worker count.
//
//	astraea tournament                              # full grid, report under results/
//	astraea tournament -schemes cubic,bbr,astraea -flows 16
//	astraea tournament -families incast,oscillating -duration 2 -check
//	astraea tournament -actors maxmin=actors/maxmin.json,alpha2=actors/alpha_2.json
//
// -actors enters pre-trained policy files (e.g. saved by `astraea fairlab
// -actors`) as additional competitors under their given names.
//
// Writes <out>/tournament.json (full cells + ranking) and
// <out>/tournament.txt (the table printed to stdout).
func cmdTournament(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("tournament", stderr)
	schemes := fs.String("schemes", "", "comma-separated schemes to enter (default: all registered)")
	families := fs.String("families", "", fmt.Sprintf("comma-separated families (default: all of %v)", tournament.FamilyNames()))
	flows := fs.Int("flows", 8, "flows per scenario")
	duration := fs.Float64("duration", 5, "seconds of simulated time per scenario")
	seed := fs.Int64("seed", 1, "base seed; each family offsets it deterministically")
	workers := fs.Int("workers", 0, "batch pool size (0 = GOMAXPROCS)")
	out := fs.String("out", "results", "output directory for tournament.json and tournament.txt")
	check := fs.Bool("check", false, "attach the invariant checker to every cell and report violation counts")
	actorsFlag := fs.String("actors", "", "comma-separated name=path policy entries (weights saved by astraea fairlab -actors)")
	if err := fs.Parse(args); err != nil {
		return parseStatus(err)
	}
	var actors []tournament.ActorSpec
	for _, part := range splitList(*actorsFlag) {
		name, path, ok := strings.Cut(part, "=")
		if !ok || name == "" || path == "" {
			return usageError(fs, "-actors entry %q: want name=path", part)
		}
		actors = append(actors, tournament.ActorSpec{Name: name, Path: path})
	}

	rep, err := tournament.Run(tournament.Config{
		Schemes:  splitList(*schemes),
		Actors:   actors,
		Families: splitList(*families),
		Flows:    *flows,
		Duration: *duration,
		Seed:     *seed,
		Workers:  *workers,
		Check:    *check,
	})
	if err != nil {
		if strings.Contains(err.Error(), "scheme") {
			err = fmt.Errorf("%w\nregistered schemes: %v", err, cc.Names())
		}
		return failed(fs, err)
	}
	var table bytes.Buffer
	if err := rep.WriteTable(&table); err != nil {
		return failed(fs, err)
	}
	stdout.Write(table.Bytes())
	if *out == "" {
		return 0
	}
	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		return failed(fs, err)
	}
	stem := filepath.Join(*out, "tournament")
	if err := writeReport(stem, js.Bytes(), table.Bytes()); err != nil {
		return failed(fs, err)
	}
	fmt.Fprintf(stderr, "wrote %s.json and %s.txt\n", stem, stem)
	return 0
}
