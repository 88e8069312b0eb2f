package bench

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	diospyros "diospyros"
	"diospyros/internal/diff"
	"diospyros/internal/egraph"
)

// Gate-failure forensics: when -compare trips, this file turns each
// regressed row into a diff artifact pair automatically. The committed
// baselines carry values only (cycles, profile, peak bytes — no traces:
// Table 1 runs journal-off so the journal ring does not count against the
// memory gate), so the regressed kernels are recompiled here with the
// flight recorder armed on demand, and the diff gracefully notes what the
// value-only baseline side cannot attribute.

// RegressedIDs collects the kernel IDs of every regressed row across the
// given verdicts, deduplicated in first-seen order. Rows that are ok,
// improved, new, missing, or without a baseline never trigger forensics.
func RegressedIDs(verdicts ...[]CompareRow) []string {
	seen := map[string]bool{}
	var out []string
	for _, rows := range verdicts {
		for _, r := range rows {
			if r.Status == CompareRegressed && !seen[r.ID] {
				seen[r.ID] = true
				out = append(out, r.ID)
			}
		}
	}
	return out
}

// FOptions parameterizes a Forensics capture.
type FOptions struct {
	// Dir receives the per-kernel diff artifacts (created if missing).
	Dir string
	// Opts are the compile options of the gated run; the forensics
	// recompile reuses them with the journal armed on top, so the captured
	// flight record describes the same configuration that regressed.
	Opts diospyros.Options
	// BaselineLabel names the baseline side in the diffs (usually the
	// -compare file name).
	BaselineLabel string
	// Progress, when non-nil, receives one line per captured kernel.
	Progress func(string)
	// Context cancels the recompiles. Nil means context.Background().
	Context context.Context
}

// Forensics captures a diff artifact pair (<kernel>.diff.json and
// <kernel>.diff.html) for each regressed kernel ID: the kernel is
// recompiled with the search journal armed and simulated, then diffed
// against its row in the raw -compare baseline. It returns the paths
// written. Kernels missing from the suite or the baseline are skipped
// with a progress note rather than failing the whole capture.
func Forensics(opt FOptions, baseline []byte, ids []string) ([]string, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	label := opt.BaselineLabel
	if label == "" {
		label = "baseline"
	}
	art, err := diff.LoadArtifact(label, baseline)
	if err != nil {
		return nil, fmt.Errorf("forensics: %w", err)
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("forensics: %w", err)
	}
	progress := opt.Progress
	if progress == nil {
		progress = func(string) {}
	}
	kernels := map[string]Kernel{}
	for _, k := range Suite() {
		kernels[k.ID] = k
	}

	opts := opt.Opts
	var written []string
	for _, id := range ids {
		k, ok := kernels[id]
		if !ok {
			progress(fmt.Sprintf("forensics: %s: not in the suite, skipped", id))
			continue
		}
		base, ok := art.Find(id)
		if !ok {
			progress(fmt.Sprintf("forensics: %s: not in the baseline, skipped", id))
			continue
		}
		// Recompile with the flight recorder armed: the gated Table 1 run is
		// journal-off (the ring would count against the memory gate), so the
		// attribution data is captured fresh, on demand.
		opts.Journal = egraph.NewJournal(0)
		res, err := diospyros.CompileContext(ctx, k.Lift(), opts)
		if err != nil {
			return written, fmt.Errorf("forensics: %s: %w", id, err)
		}
		cur := diff.Input{Label: "current", Kernel: id, Trace: res.Trace}
		if res.Primary().Program != nil {
			if _, sres, err := res.Run(k.Inputs(rand.New(rand.NewSource(1))), nil); err == nil {
				cur.Profile = sres.Profile
				cur.Cycles = sres.Cycles
			}
		}
		d := diff.Compare(base, cur)

		slug := kernelSlug(id)
		jsonPath := filepath.Join(opt.Dir, slug+".diff.json")
		raw, err := d.JSON()
		if err != nil {
			return written, fmt.Errorf("forensics: %s: %w", id, err)
		}
		if err := os.WriteFile(jsonPath, raw, 0o644); err != nil {
			return written, fmt.Errorf("forensics: %w", err)
		}
		written = append(written, jsonPath)

		htmlPath := filepath.Join(opt.Dir, slug+".diff.html")
		page, err := diff.Report(d, base, cur)
		if err != nil {
			return written, fmt.Errorf("forensics: %s: %w", id, err)
		}
		if err := os.WriteFile(htmlPath, page, 0o644); err != nil {
			return written, fmt.Errorf("forensics: %w", err)
		}
		written = append(written, htmlPath)
		progress(fmt.Sprintf("forensics: %s: %d divergences -> %s", id, len(d.Divergences), jsonPath))
	}
	return written, nil
}

// kernelSlug turns a kernel ID into a safe artifact file stem
// ("2DConv 3x3 2x2" -> "2dconv-3x3-2x2").
func kernelSlug(id string) string {
	var b strings.Builder
	lastDash := true
	for _, r := range strings.ToLower(id) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
			lastDash = false
		default:
			if !lastDash {
				b.WriteByte('-')
				lastDash = true
			}
		}
	}
	return strings.TrimSuffix(b.String(), "-")
}
