// Command astraea-infer runs the shared batched inference service of §4 as
// a standalone daemon: senders submit state vectors over a UDP or UNIX
// datagram socket and receive actions; requests that arrive while the
// policy is evaluating are answered together as the next batch.
//
// Examples:
//
//	astraea-infer -listen udp:127.0.0.1:9000 -policy reference
//	astraea-infer -listen unixgram:/tmp/astraea.sock -policy actor.json
//	astraea-infer -listen udp:127.0.0.1:9000 -policy actor.aqp
//
// Policy files load through the same format sniffing as astraea-serve:
// quantized blobs (cmd/astraea-quantize) serve the fixed-point compiled
// form; JSON actor weights are compiled to it at load unless -float keeps
// the float64 oracle network.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro/internal/core"
)

func main() {
	listen := flag.String("listen", "udp:127.0.0.1:9000", "network:address to serve on (udp:host:port or unixgram:/path)")
	policyArg := flag.String("policy", "reference", `"reference", a path to JSON actor weights, or a quantized blob (astraea-quantize)`)
	floatPath := flag.Bool("float", false, "serve JSON actor weights as float64 instead of compiling them to the quantized fixed-point form")
	maxBatch := flag.Int("max-batch", 256, "most requests evaluated as one batch")
	flag.Parse()

	network, address, ok := strings.Cut(*listen, ":")
	if !ok {
		fmt.Fprintf(os.Stderr, "astraea-infer: bad -listen %q\n", *listen)
		os.Exit(1)
	}

	cfg := core.DefaultConfig()
	var policy core.Policy
	if *policyArg == "reference" {
		policy = core.NewReferencePolicy(cfg)
	} else {
		p, err := core.LoadServingPolicy(*policyArg, cfg, !*floatPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "astraea-infer:", err)
			os.Exit(1)
		}
		policy = p
	}

	svc := core.NewService(cfg, policy)
	svc.MaxBatch = *maxBatch
	srv, err := core.ListenAndServe(svc, network, address)
	if err != nil {
		fmt.Fprintln(os.Stderr, "astraea-infer:", err)
		os.Exit(1)
	}
	fmt.Printf("astraea-infer: serving on %s (%s), max batch %d\n",
		srv.Addr(), network, *maxBatch)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	requests, batches := svc.Stats()
	fmt.Printf("astraea-infer: shutting down after %d requests in %d batches\n",
		requests, batches)
	srv.Close()
}
