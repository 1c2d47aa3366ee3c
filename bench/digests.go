package main

import "fmt"

// pinnedDigests holds the input digest of every workload at the default
// seed, per scale. A run at the default seed whose inputs hash differently
// refuses to report: parent and change then provably ran the same inputs.
// Other seeds print their digest and are not pinned.
var pinnedDigests = map[string]string{
	"full/slice_hot":      "a4ddd3703d9ebaa4",
	"full/scan_cold":      "b8207ad249110e04",
	"full/serve_http":     "a4ddd3703d9ebaa4",
	"full/serve_cluster":  "a4ddd3703d9ebaa4",
	"full/refresh_read":   "4607a654268addd5",
	"quick/slice_hot":     "317338b411267bf2",
	"quick/scan_cold":     "3755f82ed24eaad4",
	"quick/serve_http":    "317338b411267bf2",
	"quick/serve_cluster": "317338b411267bf2",
	"quick/refresh_read":  "5050dca46e19b39f",
}

func checkDigest(sc scale, sp spec, seed uint64, digest string) error {
	if seed != defaultSeed {
		return nil
	}
	key := sc.name + "/" + sp.name
	if want, ok := pinnedDigests[key]; !ok || want != digest {
		return fmt.Errorf("input digest of %s at seed %d is %s, pinned %q: the inputs changed, so results would not compare; "+
			"a benchmark issue must re-pin bench/digests.go", key, seed, digest, want)
	}
	return nil
}
