package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/prog"
)

// persistSize is persist_resume's shape: rounds times one cold
// checkpointed campaign (phase W, writes) and then resumes read-only
// campaigns from the store it left (phase R, reads).
type persistSize struct{ rounds, writeExecs, resumes, resumeExecs int }

func (p params) persistSize() persistSize {
	if p.tiny {
		return persistSize{rounds: 1, writeExecs: 1200, resumes: 1, resumeExecs: 800}
	}
	return persistSize{rounds: p.scaled(9), writeExecs: 10000, resumes: 2, resumeExecs: 10000}
}

// storeCap bounds the seed pool of the two workloads whose timed
// region saves a corpus store (persist_resume's campaigns, fleet_sync's
// hub), and with it the files one Save replaces. The default, 512, is
// what every caller in the repository runs, and inside the checkout it
// cannot be timed: the reference machine's ext4 has no journal, and
// there a new inode is found by scanning past every inode of the block
// group freed in the last 60 to 300 s (ext4's recently_deleted), so a
// file costs 40 us to create on an idle filesystem and 350 to 650 us
// once a few ten thousand were replaced. At 512 a run replaces 25k to
// 40k files; back-to-back fleet_sync runs read 23k, 17k, 11.5k and then
// 9 to 11k execs/s, the first three minutes of a set decide its spread
// (0.32, past any bound the contract allows), and what the plateau
// times is the inode scan. At 16 a run replaces 2k files and eight
// back-to-back runs from an idle filesystem read 40k to 48k with no
// trend. The traced runs price Save, Load and Diff at the default
// capacity (probeStore); README.md has the measurements.
const storeCap = 16

func (s persistSize) execs() int { return s.writeExecs + s.resumes*s.resumeExecs }

// persistCampaign is one finished campaign of a persist round with
// what the store reported when it was opened.
type persistCampaign struct {
	what   string
	st     *fuzz.Stats
	err    error
	budget int
	report *corpusstore.Report
	resume bool
}

// runPersistRound runs phase W and phase R against one fresh store
// directory and returns every campaign for the checks.
func runPersistRound(ctx context.Context, e *env, p params, tk *track, size persistSize, round int) ([]persistCampaign, error) {
	dir, err := os.MkdirTemp(p.tmp, "persist-*")
	if err != nil {
		return nil, err
	}
	f := fuzz.New(e.wide, e.kernel)
	campaigns := make([]persistCampaign, 0, 1+size.resumes)
	run := func(what, span string, cfg fuzz.Config, resume bool) {
		pc := persistCampaign{what: what, budget: cfg.Execs, resume: resume}
		cfg.CorpusDir = dir
		cfg.CorpusCap = storeCap
		cfg.StoreReport = func(r corpusstore.Report) { pc.report = &r }
		tk.begin(span)
		pc.st, pc.err = f.RunContext(ctx, cfg)
		tk.end()
		campaigns = append(campaigns, pc)
	}
	cold := fuzz.DefaultConfig(size.writeExecs, derive(p.seed, streamRound, round))
	cold.Checkpoint = true
	run(fmt.Sprintf("round %d, phase W", round), "fuzz.run_checkpointed", cold, false)
	for i := 0; i < size.resumes; i++ {
		cfg := fuzz.DefaultConfig(size.resumeExecs, derive(p.seed, streamResume, round*size.resumes+i))
		cfg.ReadOnlyCorpus = true
		run(fmt.Sprintf("round %d, resume %d", round, i), "fuzz.run_resumed", cfg, true)
	}
	return campaigns, nil
}

// checkPersist verifies a persist round: every campaign as any other,
// and every resume loaded a non-empty store without skipping an entry.
func checkPersist(c *checks, e *env, campaigns []persistCampaign) {
	for _, pc := range campaigns {
		checkCampaign(c, pc.what, e.wide, e.kernel, pc.st, pc.err, pc.budget)
		if pc.report == nil {
			c.ok(false, "%s: no store report", pc.what)
			continue
		}
		c.ok(len(pc.report.Skipped) == 0, "%s: store load skipped %d entries", pc.what, len(pc.report.Skipped))
		if pc.resume {
			c.ok(pc.report.Loaded > 0, "%s: resumed from an empty store", pc.what)
		}
	}
}

func runPersistResume(ctx context.Context, e *env, p params) (*outcome, error) {
	o := newOutcome()
	size := p.persistSize()
	warm := persistSize{rounds: 1, writeExecs: 2048, resumes: 1, resumeExecs: 1024}
	if _, err := runPersistRound(ctx, e, p, nil, warm, -1); err != nil {
		return nil, err
	}
	var all []persistCampaign
	for r := 0; r < size.rounds; r++ {
		var campaigns []persistCampaign
		var err error
		o.timed(p, func() int {
			campaigns, err = runPersistRound(ctx, e, p, nil, size, r)
			return size.execs()
		})
		if err != nil {
			return nil, err
		}
		all = append(all, campaigns...)
	}
	checkPersist(&o.checks, e, all)
	for _, pc := range all {
		if pc.st != nil {
			o.addStats(pc.st)
		}
	}
	o.note("%d rounds x (%d checkpointed execs + %d resumes x %d execs)", size.rounds, size.writeExecs, size.resumes, size.resumeExecs)
	return o, nil
}

func tracePersistResume(ctx context.Context, e *env, p params, tr *tracer) (*outcome, error) {
	o := newOutcome()
	size := p.persistSize()
	tk := tr.track(0, 0)
	defer tk.close()
	f := fuzz.New(e.wide, e.kernel)
	var detached, checkpointed time.Duration
	for r := 0; r < size.rounds; r++ {
		tk.round = r
		campaigns, err := runPersistRound(ctx, e, p, tk, size, r)
		if err != nil {
			return nil, err
		}
		checkPersist(&o.checks, e, campaigns)
		for _, pc := range campaigns {
			if pc.st != nil {
				o.addStats(pc.st)
			}
		}
		if st := campaigns[0].st; st != nil {
			checkpointed += st.Elapsed
		}
		// The same seed and budget with no store: what checkpointing costs.
		tk.begin("fuzz.run_detached")
		twin := fuzz.DefaultConfig(size.writeExecs, derive(p.seed, streamRound, r))
		twin.CorpusCap = storeCap
		f.RunContext(ctx, twin)
		detached += time.Duration(tk.end())
	}
	o.layer["fuzz.checkpoint_overhead_frac"] = 1 - ratio(float64(detached), float64(checkpointed))
	if err := probeStore(ctx, tr, e, p, o.layer); err != nil {
		return nil, err
	}
	o.note("%d rounds x (%d checkpointed execs + %d resumes x %d execs), plus a detached twin of each phase W", size.rounds, size.writeExecs, size.resumes, size.resumeExecs)
	return o, nil
}

// probeStore prices the corpus store at the capacity every caller in
// the repository runs, which the timed workloads cannot (see storeCap):
// a cold campaign fills a store to the default capacity, and the probe
// loads it, saves it into a fresh directory, saves it again unchanged,
// merges, diffs, replays it, and runs the program text codec. That is
// five Saves of up to 512 files in a traced run, few enough not to slow
// the runs after it.
func probeStore(ctx context.Context, tr *tracer, e *env, p params, l map[string]float64) error {
	dir, err := os.MkdirTemp(p.tmp, "store-probe-*")
	if err != nil {
		return err
	}
	f := fuzz.New(e.wide, e.kernel)
	fillExecs := 4096 // the wide target fills 512 seeds within 2000 execs
	if p.tiny {
		fillExecs = 300
	}
	fill := fuzz.DefaultConfig(fillExecs, derive(p.seed, streamProbe, 0))
	fill.CorpusDir = dir
	if _, err := f.RunContext(ctx, fill); err != nil {
		return err
	}
	tk := tr.track(-1, 0)
	src, err := corpusstore.Open(dir)
	if err != nil {
		return err
	}
	tk.begin("corpusstore.load")
	seeds, _, err := src.Load(e.wide)
	tk.end()
	if err != nil {
		return err
	}
	fresh, err := os.MkdirTemp(p.tmp, "store-probe-*")
	if err != nil {
		return err
	}
	dst, err := corpusstore.Open(fresh)
	if err != nil {
		return err
	}
	tk.begin("corpusstore.save")
	err = dst.Save(seeds, 0)
	tk.end()
	if err != nil {
		return err
	}
	tk.begin("corpusstore.resave")
	err = dst.Save(seeds, 0)
	tk.end()
	if err != nil {
		return err
	}
	tk.begin("corpusstore.merge")
	corpusstore.Merge(0, seeds, seeds)
	tk.end()
	// Diff over a store whose second generation added the lower-ranked
	// half of the seeds.
	halfDir, err := os.MkdirTemp(p.tmp, "store-probe-*")
	if err != nil {
		return err
	}
	half, err := corpusstore.Open(halfDir)
	if err != nil {
		return err
	}
	if err := half.Save(seeds[:len(seeds)/2], 0); err != nil {
		return err
	}
	if err := half.Save(seeds, 0); err != nil {
		return err
	}
	tk.begin("corpusstore.diff")
	_, _, _, err = half.Diff(e.wide, 1)
	tk.end()
	if err != nil {
		return err
	}
	texts := make([]string, len(seeds))
	for i, s := range seeds {
		tk.begin("prog.serialize")
		texts[i] = s.Prog.Serialize()
		tk.end()
	}
	for _, text := range texts {
		tk.begin("prog.deserialize")
		_, err := prog.Deserialize(e.wide, text)
		tk.end()
		if err != nil {
			return fmt.Errorf("stored program does not parse back: %w", err)
		}
	}
	// A resume whose whole budget is the replay of the stored seeds.
	cfg := fuzz.DefaultConfig(len(seeds), derive(p.seed, streamProbe, 1))
	cfg.CorpusDir = dir
	cfg.ReadOnlyCorpus = true
	tk.begin("fuzz.replay")
	_, err = f.RunContext(ctx, cfg)
	tk.end()
	if err != nil {
		return err
	}
	tk.close()
	files, size := 0, int64(0)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil && !ent.IsDir() {
			files++
			size += info.Size()
		}
	}
	for metric, name := range map[string]string{
		"corpusstore.load_ms": "corpusstore.load", "corpusstore.save_ms": "corpusstore.save",
		"corpusstore.resave_ms": "corpusstore.resave", "corpusstore.merge_ms": "corpusstore.merge",
		"corpusstore.diff_ms": "corpusstore.diff", "fuzz.replay_ms": "fuzz.replay",
	} {
		l[metric] = tr.get(name).meanNs() / 1e6
	}
	l["prog.serialize_ns"] = tr.get("prog.serialize").meanNs()
	l["prog.deserialize_ns"] = tr.get("prog.deserialize").meanNs()
	l["corpusstore.files"] = float64(files)
	l["corpusstore.bytes"] = float64(size)
	return nil
}
