// Command impeccable-verify replays a state directory offline and
// checks everything the provenance machinery promises, without
// starting a server or rerunning a single campaign:
//
//   - every journal event's chain hash re-derives from its predecessor
//     and its own canonical JSON;
//   - every sealed Merkle root (and every compaction checkpoint's
//     preserved root) equals the Merkle root of its job's event hashes,
//     and a sampled inclusion proof verifies against it;
//   - every spilled artifact ({sha256, size} ref in a journal line)
//     resolves to bytes matching its hash;
//   - every cache-checkpoint chunk the caches.snap manifest names is a
//     readable, hash-clean blob.
//
// A bit flipped anywhere in the state dir — a journal field, a spilled
// request or result ledger, a cache-checkpoint chunk — fails the run.
//
// Usage:
//
//	impeccable-verify -state /var/lib/impeccable
//
// Exit status 0 when every check passes, 1 otherwise (problems on
// stderr), 2 for usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"impeccable/internal/service"
)

func main() {
	state := flag.String("state", "", "state directory to verify (the server's -state-dir)")
	asJSON := flag.Bool("json", false, "emit the full report as JSON on stdout")
	quiet := flag.Bool("quiet", false, "print nothing on success")
	flag.Parse()
	if *state == "" {
		fmt.Fprintln(os.Stderr, "impeccable-verify: -state is required")
		flag.Usage()
		os.Exit(2)
	}
	report, err := service.VerifyStateDir(*state)
	if err != nil {
		fmt.Fprintf(os.Stderr, "impeccable-verify: %v\n", err)
		os.Exit(1)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(report)
	} else if !*quiet || !report.Ok() {
		fmt.Printf("%s: %d events, %d jobs (%d sealed, %d checkpointed, %d legacy), %d artifacts verified\n",
			*state, report.Events, report.Jobs, report.Sealed, report.Checkpoints, report.Legacy, report.Blobs)
	}
	if !report.Ok() {
		for _, p := range report.Problems {
			fmt.Fprintf(os.Stderr, "FAIL: %s\n", p)
		}
		os.Exit(1)
	}
}
