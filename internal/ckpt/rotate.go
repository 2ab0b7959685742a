// Checkpoint series rotation. A long training run that checkpoints every N
// episodes grows its directory without bound unless old snapshots are
// retired; this file implements the retention rule shared by
// `astraea train -checkpoint-keep` and the pilot's training loop: keep the
// newest K series members plus the pinned one (the checkpoint that produced
// the last promoted policy — the state an operator resumes from when a
// later trajectory goes bad), delete the rest.

package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// SeriesName returns the series member path for base at sequence number seq
// (typically the trainer's episode counter): base.00000025 for seq 25. The
// fixed width keeps lexical and numeric order identical for any realistic
// episode count.
func SeriesName(base string, seq int) string {
	return fmt.Sprintf("%s.%08d", base, seq)
}

// seriesSeq parses the sequence number of a series member of base, matching
// only names SeriesName produces: base + "." + digits.
func seriesSeq(base, name string) (int, bool) {
	suffix, ok := strings.CutPrefix(name, filepath.Base(base)+".")
	if !ok || suffix == "" {
		return 0, false
	}
	for i := 0; i < len(suffix); i++ {
		if suffix[i] < '0' || suffix[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(suffix)
	if err != nil {
		return 0, false
	}
	return n, true
}

// PruneSeries enforces the retention rule over base's series: the keep
// newest members (by sequence number) survive, the member named by pinned
// (a path or basename; empty pins nothing) always survives, everything
// else is deleted. base itself — the resume target the trainer overwrites
// in place — is never touched. Returns the deleted paths. keep < 1 keeps
// only the pinned member.
func PruneSeries(base string, keep int, pinned string) ([]string, error) {
	if keep < 0 {
		keep = 0
	}
	dir := filepath.Dir(base)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: prune %s: %w", base, err)
	}
	type member struct {
		name string
		seq  int
	}
	var members []member
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := seriesSeq(base, e.Name()); ok {
			members = append(members, member{name: e.Name(), seq: seq})
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i].seq > members[j].seq })
	pinBase := filepath.Base(pinned)
	var removed []string
	for i, m := range members {
		if i < keep || (pinBase != "" && m.name == pinBase) {
			continue
		}
		path := filepath.Join(dir, m.name)
		if err := os.Remove(path); err != nil {
			return removed, fmt.Errorf("ckpt: prune %s: %w", path, err)
		}
		removed = append(removed, path)
	}
	return removed, nil
}

// PinPath is where the promotion pin for base's series is recorded: a one-
// line file naming the series member that produced the last promoted
// policy. The pilot writes it at promotion time; PruneSeries callers read
// it through ReadPin so rotation never deletes the promoted lineage.
func PinPath(base string) string { return base + ".promoted" }

// WritePin records member (a series path or basename) as base's promotion
// pin, atomically.
func WritePin(base, member string) error {
	return WriteAtomic(PinPath(base), []byte(filepath.Base(member)+"\n"), 0o644)
}

// ReadPin returns the pinned series member for base, or "" when no pin has
// been recorded.
func ReadPin(base string) string {
	data, err := os.ReadFile(PinPath(base))
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(data))
}
