//! The `flexpipe-fleet` CLI: declarative scenario sweeps over the FlexPipe
//! serving simulator.
//!
//! Every verb form — its words, operands and flags — is one row of
//! `VERBS`, which both the parser and `flexpipe-fleet help` read. Every
//! spec file is JSON. A flag the form does not take, a flag given twice,
//! a value flag with no value and a wrong operand count are usage errors.
//!
//! Exit codes: 0 success / gate pass, 1 usage or I/O error, 2 gate /
//! `--assert-warm` fail.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use flexpipe_check::{
    check_equiv, explore, semantic_fingerprint, CheckScenario, ExploreConfig,
    PINNED_SEMANTIC_FINGERPRINT,
};
use flexpipe_fleet::cache::parse_duration;
use flexpipe_fleet::{
    assemble_campaign, cache_salt, find_cell, gate::gate, parse_bench, parse_campaign, parse_spec,
    profile_dispatch, record_cell_trace, run_bench, run_campaign, run_sweep, run_worker,
    AssembleOutcome, BenchSpec, CampaignOptions, CampaignSpec, CellCache, FleetReport, GateConfig,
    RunOptions, SpecReport, SweepSpec, WorkerOptions, DEFAULT_CLAIM_TTL,
};
use flexpipe_gateway::{
    replay_with, serve_with, LeastLoadedSpillover, NoSpillover, Pacing, PaperSetup, Recording,
    ServeOutcome, ServeSpec, SpilloverPolicy,
};
use flexpipe_metrics::{fmt_f, Table};
use flexpipe_obs::{parse_jsonl, TraceRecord, TraceSummary};
use flexpipe_serving::{TraceMode, ENGINE_SEMANTICS_VERSION};
use serde::Serialize;

/// A flag as the table writes it: `--name <value>` (a switch has no
/// value), two spaces, then a one-line description.
type Flag = &'static str;

/// One verb form: the row the parser matches and `help` prints.
struct Form {
    /// The words that select the form, then its operands: `<x>` is
    /// required, `[x]` optional (`campaign assemble <campaign.json>`).
    usage: &'static str,
    flags: &'static [Flag],
    about: &'static str,
    run: fn(&Args) -> Result<ExitCode, ExitCode>,
}

const THREADS: Flag =
    "--threads <n>  worker threads (default one per core); artifacts are the same at any count";
const QUIET: Flag = "--quiet  suppress per-cell progress on stderr";
const VERBOSE: Flag = "--verbose  per-cell start/finish lines on stderr (cache status, wall ms)";
const CACHE: Flag = "--cache <dir>  override the campaign's cache directory";
const OUT_DIR: Flag = "--out-dir <dir>  artifact directory (default <name>.campaign)";
const TOLERANCE: Flag = "--tolerance <frac>  allowed relative degradation (default 0.02)";

/// Flag pairs of which one command line may give at most one.
const EITHER: &[(&str, &str)] = &[
    ("--cache", "--no-cache"),
    ("--time-scale", "--unpaced"),
    ("--shard", "--claim-ttl"),
];

/// Flags every form that takes them requires.
const REQUIRED: &[&str] = &["--baseline"];

static VERBS: &[Form] = &[
    Form {
        usage: "init [spec.json]",
        flags: &[],
        about: "write the 24-cell template sweep (default sweep.json)",
        run: cmd_init,
    },
    Form {
        usage: "run <spec.json>",
        flags: &[
            "--out <report.json>  the artifact (default <name>.report.json)",
            THREADS,
            QUIET,
            VERBOSE,
        ],
        about: "run a sweep on a worker pool",
        run: cmd_run,
    },
    Form {
        usage: "bench init [bench.json]",
        flags: &[],
        about: "write the engine-tunable bench template (default bench.json)",
        run: cmd_bench_init,
    },
    Form {
        usage: "bench <bench.json>",
        flags: &[
            "--out <report.json>  the artifact (default <name>.report.json)",
            THREADS,
            "--rates <a,b,..>  override the spec's rate axis",
            QUIET,
        ],
        about: "sweep engine tunables x rates; wall-clock columns on stdout only",
        run: cmd_bench,
    },
    Form {
        usage: "campaign init [campaign.json]",
        flags: &[],
        about: "write the CI campaign template (default campaign.json)",
        run: cmd_campaign_init,
    },
    Form {
        usage: "campaign <campaign.json>",
        flags: &[
            OUT_DIR,
            CACHE,
            "--no-cache  compute every cell, touch no cache",
            THREADS,
            QUIET,
            VERBOSE,
            "--assert-warm  exit 2 unless every cell was a cache hit",
            "--gate <dir>  gate each sweep artifact against the same-named report in <dir>",
            TOLERANCE,
        ],
        about: "run several specs over one cell cache: <spec>.report.json each + campaign.json",
        run: cmd_campaign,
    },
    Form {
        usage: "campaign assemble <campaign.json>",
        flags: &[CACHE, OUT_DIR],
        about: "build the artifacts from the cache alone; exit 2 naming every missing cell",
        run: cmd_campaign_assemble,
    },
    Form {
        usage: "worker <campaign.json>",
        flags: &[
            CACHE,
            "--shard <i/n>  take only the cells whose key hashes to shard i of n",
            "--claim-ttl <dur>  claim mode: a claim not heartbeated this long is reaped (default 60s)",
            "--worker-id <id>  claim identity (default w<pid>)",
            "--max-cells <n>  stop after computing n cells",
            THREADS,
            QUIET,
        ],
        about: "compute a campaign's cells into a shared cache",
        run: cmd_worker,
    },
    Form {
        usage: "trace record <spec.json>",
        flags: &[
            "--cell <id>  cell to trace (default the grid's first)",
            "--mode <off|ring[:N]|full>  recorder mode (default full)",
            "--out <trace.jsonl>  trace file (default <cell-id>.trace.jsonl)",
        ],
        about: "record one cell's virtual-time JSONL trace",
        run: cmd_trace_record,
    },
    Form {
        usage: "trace summarize <trace.jsonl>",
        flags: &[],
        about: "per-kind counts and occupancy table of a trace",
        run: cmd_trace_summarize,
    },
    Form {
        usage: "trace profile",
        flags: &["--instances <n>  single-stage instances, 1..=100000 (default 1500)"],
        about: "engine dispatch wall time per event kind, timed one step at a time",
        run: cmd_trace_profile,
    },
    Form {
        usage: "serve init [serve.json]",
        flags: &[],
        about: "write the live-serve spec template (default serve.json)",
        run: cmd_serve_init,
    },
    Form {
        usage: "serve <serve.json>",
        flags: &[
            "--out-dir <dir>  artifact directory (default <name>.serve)",
            "--time-scale <x>  virtual seconds per wall second (default 1.0)",
            "--unpaced  virtual pacing: no wall clock, byte-stable",
            "--spill <least-loaded[:T]>  re-place a request whose home shard is over T deeper than the least loaded",
        ],
        about: "run the sharded live-serving gateway: recording.json + shard<i>.report.json",
        run: cmd_serve,
    },
    Form {
        usage: "serve replay <recording.json>",
        flags: &["--out-dir <dir>  artifact directory (default <name>.replay)"],
        about: "re-execute a recording; exit 2 unless it re-assembles the input",
        run: cmd_serve_replay,
    },
    Form {
        usage: "check equiv <a.jsonl> <b.jsonl>",
        flags: &[],
        about: "semantic trace equivalence; exit 2 with the first per-entity divergence",
        run: cmd_check_equiv,
    },
    Form {
        usage: "check equiv --cross-shard",
        flags: &[
            "--shards <n>  shard count (default 2)",
            "--spec <serve.json>  serve spec (default the pinned workload)",
        ],
        about: "N-shard vs 1-shard request-stream equivalence; exit 2 on divergence",
        run: cmd_check_cross_shard,
    },
    Form {
        usage: "check explore",
        flags: &[
            "--scenario <name>  explore one scenario (default every exploration target)",
            "--max-schedules <n>  schedule budget per scenario (default 2048)",
            "--no-prune  disable persistent-set pruning",
        ],
        about: "bounded interleaving exploration; exit 2 on an unexpected verdict",
        run: cmd_check_explore,
    },
    Form {
        usage: "check pin",
        flags: &[],
        about: "recompute the probe's semantic fingerprint; exit 2 if it drifted",
        run: cmd_check_pin,
    },
    Form {
        usage: "cache stats <dir>",
        flags: &["--claim-ttl <dur>  claims older than this count as stale (default 60s)"],
        about: "entry, claim, size and age summary",
        run: cmd_cache_stats,
    },
    Form {
        usage: "cache gc <dir>",
        flags: &[
            "--max-age <dur>  drop entries older than this (90s, 15m, 12h, 7d)",
            "--max-bytes <n>  then evict oldest first down to n bytes",
        ],
        about: "bound the cache (needs --max-age and/or --max-bytes); live claims stay",
        run: cmd_cache_gc,
    },
    Form {
        usage: "fingerprint",
        flags: &[],
        about: "print the cell-cache salt",
        run: cmd_fingerprint,
    },
    Form {
        usage: "compare <report.json>",
        flags: &[],
        about: "render the tables of a sweep artifact",
        run: cmd_compare,
    },
    Form {
        usage: "gate <report.json>",
        flags: &[
            "--baseline <baseline.json>  the report to gate against",
            TOLERANCE,
            "--strict-cells  grid changes fail the gate",
        ],
        about: "exit 2 if the report regressed against the baseline",
        run: cmd_gate,
    },
];

/// A flag's synopsis (`--out <report.json>`) and description.
fn spec_about(flag: Flag) -> (&'static str, &'static str) {
    flag.split_once("  ").unwrap_or((flag, ""))
}

/// A flag's name and value placeholder (empty for a switch).
fn name_value(flag: Flag) -> (&'static str, &'static str) {
    let spec = spec_about(flag).0;
    spec.split_once(' ').unwrap_or((spec, ""))
}

impl Form {
    /// The words that select the form (`campaign assemble`).
    fn words(&self) -> &'static str {
        let usage = self.usage;
        usage.split(['<', '[']).next().unwrap_or(usage).trim_end()
    }

    /// The flag called `name`, if the form takes it.
    fn flag(&self, name: &str) -> Option<Flag> {
        self.flags
            .iter()
            .copied()
            .find(|&f| name_value(f).0 == name)
    }

    /// The usage line: words and operands, then each flag, bracketed
    /// unless required, with an either/or pair in one bracket.
    fn synopsis(&self) -> String {
        let mut line = self.usage.to_string();
        for &flag in self.flags {
            let (name, spec) = (name_value(flag).0, spec_about(flag).0);
            let takes = |other: &str| self.flag(other).is_some();
            if EITHER.iter().any(|&(a, b)| name == b && takes(a)) {
                continue; // rendered with the first of its pair
            }
            let partner = EITHER
                .iter()
                .find_map(|&(a, b)| (name == a).then(|| self.flag(b)).flatten());
            line += &match partner {
                Some(other) => format!(" [{spec} | {}]", spec_about(other).0),
                None if REQUIRED.contains(&name) => format!(" {spec}"),
                None => format!(" [{spec}]"),
            };
        }
        line
    }
}

/// The usage text, built from `VERBS`.
fn help() -> String {
    let mut text = String::from("usage:\n");
    for form in VERBS {
        text += &format!(
            "  flexpipe-fleet {}\n      {}\n",
            form.synopsis(),
            form.about
        );
        for &flag in form.flags {
            let (spec, about) = spec_about(flag);
            text += &format!("        {spec:<28} {about}\n");
        }
    }
    text + "Every spec is JSON. Exit codes: 0 success, 1 usage or I/O error, \
            2 gate or --assert-warm failure.\n"
}

/// A command line matched to its form.
struct Args {
    form: &'static Form,
    operands: Vec<String>,
    /// Given flags by name, with their values.
    flags: Vec<(&'static str, Option<String>)>,
}

/// Matches `argv` to the form with the longest matching words and splits
/// flags from operands.
fn parse(argv: &[String]) -> Result<Args, String> {
    let word_count = |form: &Form| form.words().split(' ').count();
    let form = VERBS
        .iter()
        .filter(|f| {
            let words = f.words().split(' ');
            word_count(f) <= argv.len() && words.zip(argv).all(|(w, a)| w == a)
        })
        .max_by_key(|f| word_count(f))
        .ok_or_else(|| {
            format!(
                "unknown subcommand `{}`; `flexpipe-fleet help` lists them",
                argv.join(" ")
            )
        })?;
    let mut args = Args {
        form,
        operands: Vec::new(),
        flags: Vec::new(),
    };
    let mut rest = argv[word_count(form)..].iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            args.operands.push(arg.clone());
            continue;
        }
        let Some((name, placeholder)) = form.flag(arg).map(name_value) else {
            return Err(format!("unknown flag {arg} for {}", form.words()));
        };
        if args.has(name) {
            return Err(format!("flag {name} given twice"));
        }
        let value = if placeholder.is_empty() {
            None
        } else {
            match rest.next() {
                Some(v) if !v.starts_with("--") => Some(v.clone()),
                _ => return Err(format!("{name} needs a value {placeholder}")),
            }
        };
        args.flags.push((name, value));
    }
    for (a, b) in EITHER {
        if args.has(a) && args.has(b) {
            return Err(format!("{a} and {b} are mutually exclusive"));
        }
    }
    for name in REQUIRED {
        if let Some(flag) = form.flag(name).filter(|_| !args.has(name)) {
            return Err(format!("{} requires {}", form.words(), spec_about(flag).0));
        }
    }
    let operands = &form.usage[form.words().len()..];
    let required = operands.matches('<').count();
    let optional = operands.matches('[').count();
    if !(required..=required + optional).contains(&args.operands.len()) {
        return Err(format!("usage: flexpipe-fleet {}", form.synopsis()));
    }
    Ok(args)
}

impl Args {
    /// Whether `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(name, _)| *name == flag)
    }

    /// `flag`'s value read by `parse`, `None` when the flag was not
    /// given; a value `parse` refuses is a usage error naming the flag.
    fn get<T>(
        &self,
        flag: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, ExitCode> {
        let given = self.flags.iter().find(|(name, _)| *name == flag);
        let Some(value) = given.and_then(|(_, v)| v.as_deref()) else {
            return Ok(None);
        };
        let placeholder = self.form.flag(flag).map_or("", |f| name_value(f).1);
        parse(value)
            .map(Some)
            .ok_or_else(|| fail(format!("{flag} needs {placeholder}, got `{value}`")))
    }

    /// The first operand (every form that reads one requires it).
    fn operand(&self) -> &str {
        &self.operands[0]
    }
}

fn text(v: &str) -> Option<String> {
    Some(v.to_owned())
}

fn num<T: FromStr>(v: &str) -> Option<T> {
    v.parse().ok()
}

fn duration(v: &str) -> Option<Duration> {
    parse_duration(v).ok()
}

/// Reports a usage or I/O error on stderr; exit code 1.
fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::from(1)
}

fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| fail(format!("cannot read {path}: {e}")))
}

fn write(path: &str, contents: &str) -> Result<(), ExitCode> {
    std::fs::write(path, contents).map_err(|e| fail(format!("cannot write {path}: {e}")))
}

fn load_trace(path: &str) -> Result<Vec<TraceRecord>, ExitCode> {
    parse_jsonl(&read(path)?).map_err(|e| fail(format!("cannot parse trace {path}: {e}")))
}

fn load_report(path: &str) -> Result<FleetReport, ExitCode> {
    FleetReport::from_json(&read(path)?)
        .map_err(|e| fail(format!("cannot parse report {path}: {e}")))
}

fn exit_code(passed: bool) -> ExitCode {
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// `--threads`, `--quiet` and `--verbose`, as the form takes them.
fn run_options(args: &Args) -> Result<RunOptions, ExitCode> {
    Ok(RunOptions {
        threads: args.get("--threads", num)?.unwrap_or(0),
        quiet: args.has("--quiet"),
        verbose: args.has("--verbose"),
    })
}

/// `--tolerance` and `--strict-cells`, as the form takes them.
fn gate_config(args: &Args) -> Result<GateConfig, ExitCode> {
    let default = GateConfig::default();
    Ok(GateConfig {
        tolerance: args.get("--tolerance", num)?.unwrap_or(default.tolerance),
        strict_cells: args.has("--strict-cells"),
        ..default
    })
}

/// Writes a template spec to the path operand, else to `default`.
fn write_template<T: Serialize>(
    args: &Args,
    default: &str,
    spec: &T,
    what: String,
) -> Result<ExitCode, ExitCode> {
    let path = args.operands.first().map_or(default, String::as_str);
    let json = serde_json::to_string_pretty(spec)
        .map_err(|e| fail(format!("template serialization failed: {e}")))?;
    write(path, &format!("{json}\n"))?;
    eprintln!("wrote template {what} to {path}");
    Ok(ExitCode::SUCCESS)
}

/// Parses the campaign operand and resolves its base directory and
/// cache directory. Entry paths and the spec's `cache_dir` resolve
/// relative to the campaign file, so every campaign verb behaves the
/// same from any working directory; `--cache` overrides the cache.
fn load_campaign(args: &Args) -> Result<(CampaignSpec, PathBuf, PathBuf), ExitCode> {
    let path = args.operand();
    let spec = parse_campaign(path, &read(path)?).map_err(fail)?;
    let base_dir = Path::new(path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."))
        .to_path_buf();
    let cache_dir = match args.get("--cache", text)? {
        Some(dir) => PathBuf::from(dir),
        None => base_dir.join(&spec.cache_dir),
    };
    Ok((spec, base_dir, cache_dir))
}

fn cmd_init(args: &Args) -> Result<ExitCode, ExitCode> {
    let spec = SweepSpec::template();
    let what = format!("sweep ({} cells)", spec.expand().len());
    write_template(args, "sweep.json", &spec, what)
}

fn cmd_bench_init(args: &Args) -> Result<ExitCode, ExitCode> {
    let spec = BenchSpec::template();
    let what = format!("bench ({} cells)", spec.expand().len());
    write_template(args, "bench.json", &spec, what)
}

fn cmd_campaign_init(args: &Args) -> Result<ExitCode, ExitCode> {
    let spec = CampaignSpec::template();
    let what = format!("campaign ({} entries)", spec.entries.len());
    write_template(args, "campaign.json", &spec, what)
}

fn cmd_serve_init(args: &Args) -> Result<ExitCode, ExitCode> {
    let spec = ServeSpec::template();
    let what = format!("serve spec ({} shards)", spec.shards);
    write_template(args, "serve.json", &spec, what)
}

fn cmd_run(args: &Args) -> Result<ExitCode, ExitCode> {
    let opts = run_options(args)?;
    let out = args.get("--out", text)?;
    let path = args.operand();
    let spec = parse_spec(path, &read(path)?).map_err(fail)?;
    let report = run_sweep(&spec, &opts).map_err(fail)?;
    println!("{}", report.policy_table().render());
    println!("{}", report.cell_table().render());
    let out = out.unwrap_or_else(|| format!("{}.report.json", spec.name));
    write(&out, &report.to_json())?;
    eprintln!("wrote report to {out}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_bench(args: &Args) -> Result<ExitCode, ExitCode> {
    let opts = run_options(args)?;
    let out = args.get("--out", text)?;
    let rates = args.get("--rates", |v| v.split(',').map(num).collect())?;
    let path = args.operand();
    let mut spec = parse_bench(path, &read(path)?).map_err(fail)?;
    if let Some(rates) = rates {
        spec.rates = rates;
    }
    let (report, timings) = run_bench(&spec, &opts).map_err(fail)?;
    println!("{}", report.table(&timings).render());
    let out = out.unwrap_or_else(|| format!("{}.report.json", spec.name));
    write(&out, &report.to_json())?;
    eprintln!("wrote bench report to {out} (wall-clock excluded: artifact is byte-stable)");
    Ok(ExitCode::SUCCESS)
}

fn cmd_campaign(args: &Args) -> Result<ExitCode, ExitCode> {
    let opts = run_options(args)?;
    let cfg = gate_config(args)?;
    let gate_dir = args.get("--gate", text)?;
    let out_dir = args.get("--out-dir", text)?;
    let (spec, base_dir, cache_dir) = load_campaign(args)?;
    let cache_dir = (!args.has("--no-cache")).then_some(cache_dir);
    let cache_enabled = cache_dir.is_some();
    let result = run_campaign(
        &spec,
        &base_dir,
        &CampaignOptions {
            run: opts,
            cache_dir,
        },
    )
    .map_err(fail)?;

    for report in &result.reports {
        match report {
            SpecReport::Sweep(r) => println!("{}", r.policy_table().render()),
            SpecReport::Bench(r) => println!("{}", r.table(&[]).render()),
        }
    }
    println!("{}", result.stats.render(cache_enabled));

    let out_dir = out_dir.unwrap_or_else(|| format!("{}.campaign", spec.name));
    let written = result
        .write(Path::new(&out_dir))
        .map_err(|e| fail(format!("cannot write campaign artifacts to {out_dir}: {e}")))?;
    eprintln!("wrote {} artifacts to {out_dir}", written.len());

    // Failure checks; both exit 2.
    let mut passed = true;
    if args.has("--assert-warm") && result.stats.misses > 0 {
        eprintln!(
            "ERROR: --assert-warm, but {} of {} cells missed the cache",
            result.stats.misses, result.stats.cells
        );
        passed = false;
    }
    if let Some(dir) = gate_dir {
        for (entry, report) in result.manifest.entries.iter().zip(&result.reports) {
            if let SpecReport::Sweep(candidate) = report {
                let baseline = load_report(&format!("{dir}/{}", entry.report))?;
                let outcome = gate(&baseline, candidate, &cfg);
                print!("[{}] {}", entry.name, outcome.render(&cfg));
                passed &= outcome.passed(&cfg);
            }
        }
    }
    Ok(exit_code(passed))
}

fn cmd_campaign_assemble(args: &Args) -> Result<ExitCode, ExitCode> {
    let out_dir = args.get("--out-dir", text)?;
    let (spec, base_dir, cache_dir) = load_campaign(args)?;
    match assemble_campaign(&spec, &base_dir, &cache_dir).map_err(fail)? {
        AssembleOutcome::Incomplete { missing } => {
            eprintln!(
                "ERROR: cache {} is missing {} of the campaign's cells \
                 (never computed, evicted, truncated, different engine version, \
                 or over the current step budget):",
                cache_dir.display(),
                missing.len(),
            );
            for m in &missing {
                eprintln!("  {}:{} {}", m.entry, m.id, m.key);
            }
            Ok(ExitCode::from(2))
        }
        AssembleOutcome::Complete(result) => {
            println!("{}", result.stats.render(true));
            let out_dir = out_dir.unwrap_or_else(|| format!("{}.campaign", spec.name));
            let written = result
                .write(Path::new(&out_dir))
                .map_err(|e| fail(format!("cannot write campaign artifacts to {out_dir}: {e}")))?;
            eprintln!(
                "assembled {} artifacts from cache {} into {out_dir}",
                written.len(),
                cache_dir.display(),
            );
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn cmd_worker(args: &Args) -> Result<ExitCode, ExitCode> {
    let shard = |v: &str| {
        let (i, n) = v.split_once('/')?;
        let (i, n) = (i.parse().ok()?, n.parse().ok()?);
        (i < n).then_some((i, n))
    };
    let mut opts = WorkerOptions {
        run: run_options(args)?,
        shard: args.get("--shard", shard)?,
        claim_ttl: args
            .get("--claim-ttl", duration)?
            .unwrap_or(DEFAULT_CLAIM_TTL),
        max_cells: args.get("--max-cells", num)?,
        ..Default::default()
    };
    if let Some(id) = args.get("--worker-id", text)? {
        opts.worker_id = id;
    }
    let (spec, base_dir, cache_dir) = load_campaign(args)?;
    run_worker(&spec, &base_dir, &cache_dir, &opts).map_err(fail)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_trace_record(args: &Args) -> Result<ExitCode, ExitCode> {
    let cell_id = args.get("--cell", text)?;
    let mode = args
        .get("--mode", TraceMode::parse)?
        .unwrap_or(TraceMode::Full);
    let out = args.get("--out", text)?;
    let path = args.operand();
    let spec = parse_spec(path, &read(path)?).map_err(fail)?;
    spec.validate().map_err(|e| fail(format!("{path}: {e}")))?;
    let cell = match &cell_id {
        Some(id) => find_cell(&spec, id).ok_or_else(|| {
            eprintln!("no cell `{id}` in {path}; the grid has:");
            for c in spec.expand() {
                eprintln!("  {}", c.id());
            }
            ExitCode::from(1)
        })?,
        None => spec.expand().remove(0),
    };
    let (metrics, observed) = record_cell_trace(&spec, &cell, mode);
    let out = out.unwrap_or_else(|| format!("{}.trace.jsonl", cell.id()));
    write(&out, &observed.trace.to_jsonl())?;
    eprintln!(
        "cell {}: {} events seen, {} retained, {} evicted (mode {mode}); wrote {out}",
        cell.id(),
        observed.trace.total_seen(),
        observed.trace.len(),
        observed.trace.evicted(),
    );
    eprintln!(
        "cell metrics unchanged by tracing: {} completed, SLO att. {:.1}%{}",
        metrics.completed,
        metrics.slo_attainment * 100.0,
        if metrics.truncated { ", TRUNCATED" } else { "" },
    );
    println!(
        "{}",
        observed.trace.registry().table("events by kind").render()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_trace_summarize(args: &Args) -> Result<ExitCode, ExitCode> {
    let path = args.operand();
    let records = load_trace(path)?;
    println!("{}", TraceSummary::from_records(&records).render(path));
    Ok(ExitCode::SUCCESS)
}

fn cmd_trace_profile(args: &Args) -> Result<ExitCode, ExitCode> {
    let instances: u32 = args.get("--instances", num)?.unwrap_or(1500);
    eprintln!("profiling engine dispatch at {instances} single-stage instances...");
    let (metrics, profiler) = profile_dispatch(instances).map_err(fail)?;
    let title = format!("engine dispatch wall time per event kind at {instances} instances");
    println!("{}", profiler.table(&title).render());
    if metrics.truncated {
        eprintln!("warning: profile run hit its step budget");
    }
    Ok(ExitCode::SUCCESS)
}

/// Writes a serve outcome's artifact set: the recording plus one
/// per-shard report, all byte-stable given the recording.
fn write_serve_artifacts(dir: &str, outcome: &ServeOutcome) -> Result<(), ExitCode> {
    std::fs::create_dir_all(dir).map_err(|e| fail(format!("cannot create {dir}: {e}")))?;
    write(
        &format!("{dir}/recording.json"),
        &outcome.recording.to_json(),
    )?;
    for r in &outcome.reports {
        write(&format!("{dir}/shard{}.report.json", r.shard), &r.to_json())?;
    }
    Ok(())
}

/// Per-shard steady-state summary table for `fleet serve`.
fn serve_table(outcome: &ServeOutcome) -> Table {
    let mut t = Table::new(
        "per-shard live serve (steady state)",
        &[
            "shard",
            "cluster",
            "arrivals",
            "completed",
            "within-SLO",
            "p50 TTFT (s)",
            "p99 TTFT (s)",
            "events",
        ],
    );
    for r in &outcome.reports {
        t.row(vec![
            r.shard.to_string(),
            r.cluster.clone(),
            r.arrivals.to_string(),
            r.completed.to_string(),
            r.within_slo.to_string(),
            fmt_f(r.p50_ttft, 4),
            fmt_f(r.p99_ttft, 4),
            r.report.events.to_string(),
        ]);
    }
    t
}

fn cmd_serve(args: &Args) -> Result<ExitCode, ExitCode> {
    let out_dir = args.get("--out-dir", text)?;
    let time_scale: f64 = args.get("--time-scale", num)?.unwrap_or(1.0);
    let spill: Box<dyn SpilloverPolicy> = args
        .get("--spill", |v| {
            let (kind, threshold) = match v.split_once(':') {
                Some((kind, t)) => (kind, t.parse().ok()?),
                None => (v, 0),
            };
            (kind == "least-loaded").then_some(LeastLoadedSpillover { threshold })
        })?
        .map_or(Box::new(NoSpillover), |s| Box::new(s));
    let path = args.operand();
    let spec: ServeSpec = serde_json::from_str(&read(path)?)
        .map_err(|e| fail(format!("cannot parse serve spec {path}: {e}")))?;
    spec.validate().map_err(|e| fail(format!("{path}: {e}")))?;
    let unpaced = args.has("--unpaced");
    let pacing = if unpaced {
        Pacing::Virtual
    } else {
        Pacing::Wall { time_scale }
    };
    eprintln!(
        "serving `{}` on {} shards ({})...",
        spec.name,
        spec.shards,
        if unpaced {
            "virtual pacing".to_string()
        } else {
            format!("wall-paced at {time_scale}x")
        },
    );
    let setup = PaperSetup::for_model(spec.model);
    let outcome =
        serve_with(&spec, pacing, spill.as_ref(), &setup, TraceMode::Off).map_err(fail)?;
    println!("{}", serve_table(&outcome).render());
    let out_dir = out_dir.unwrap_or_else(|| format!("{}.serve", spec.name));
    write_serve_artifacts(&out_dir, &outcome)?;
    eprintln!(
        "served {} arrivals; recording + {} shard reports in {out_dir} \
         (replay with `serve replay {out_dir}/recording.json`)",
        outcome.recording.arrivals.len(),
        outcome.reports.len(),
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_serve_replay(args: &Args) -> Result<ExitCode, ExitCode> {
    let out_dir = args.get("--out-dir", text)?;
    let path = args.operand();
    let recording = Recording::from_json(&read(path)?)
        .map_err(|e| fail(format!("cannot parse recording {path}: {e}")))?;
    let setup = PaperSetup::for_model(recording.spec.model);
    let outcome = replay_with(&recording, &setup, TraceMode::Off).map_err(fail)?;
    println!("{}", serve_table(&outcome).render());
    // The built-in self-check: a replay re-assembles its own input
    // recording from the replayed shards. A mismatch means the
    // record/replay contract broke — the same class of failure as a
    // gate regression, so the same exit code.
    if outcome.recording.to_json() != recording.to_json() {
        eprintln!("ERROR: replay re-assembled a different recording than its input");
        return Ok(ExitCode::from(2));
    }
    let out_dir = out_dir.unwrap_or_else(|| format!("{}.replay", recording.spec.name));
    write_serve_artifacts(&out_dir, &outcome)?;
    eprintln!(
        "replayed {} arrivals across {} shards; artifacts in {out_dir}",
        recording.arrivals.len(),
        outcome.reports.len(),
    );
    Ok(ExitCode::SUCCESS)
}

/// Semantic equivalence of two recorded traces: the checker's
/// commutation relation decides, not byte equality.
fn cmd_check_equiv(args: &Args) -> Result<ExitCode, ExitCode> {
    let (a, b) = (&args.operands[0], &args.operands[1]);
    let report = check_equiv(&load_trace(a)?, &load_trace(b)?);
    print!("{}", report.render(a, b));
    Ok(exit_code(report.equivalent()))
}

/// Runs the pinned non-interfering workload at N shards and at 1 shard,
/// and requires the merged request streams to be semantically equivalent
/// to the canonical trace (request-stream projection + per-stream
/// instance alpha-renaming — see flexpipe-check).
fn cmd_check_cross_shard(args: &Args) -> Result<ExitCode, ExitCode> {
    let shards: u32 = args.get("--shards", num)?.unwrap_or(2);
    let spec = match args.get("--spec", text)? {
        Some(path) => {
            let mut s: ServeSpec = serde_json::from_str(&read(&path)?)
                .map_err(|e| fail(format!("cannot parse serve spec {path}: {e}")))?;
            s.shards = shards;
            s
        }
        None => flexpipe_gateway::cross_shard_check_spec(shards),
    };
    spec.validate().map_err(fail)?;
    let mut canonical_spec = spec.clone();
    canonical_spec.shards = 1;

    eprintln!(
        "cross-shard check `{}`: {shards}-shard vs 1-shard canonical...",
        spec.name
    );
    let setup = PaperSetup::for_model(spec.model);
    let run = |s: &ServeSpec| {
        serve_with(s, Pacing::Virtual, &NoSpillover, &setup, TraceMode::Full).map_err(fail)
    };
    let sharded = run(&spec)?;
    let canonical = run(&canonical_spec)?;

    let shard_traces: Vec<Vec<TraceRecord>> =
        (0..shards).map(|s| sharded.global_trace(s)).collect();
    let refs: Vec<&[TraceRecord]> = shard_traces.iter().map(Vec::as_slice).collect();
    let report = flexpipe_check::check_cross_shard(&refs, &canonical.global_trace(0));
    print!(
        "{}",
        report.render(&format!("{shards}-shard"), "1-shard canonical")
    );
    Ok(exit_code(report.equivalent()))
}

/// Bounded interleaving exploration over the committed scenarios. A
/// scenario passes when its verdict matches its committed expectation:
/// confluent scenarios must converge, and the known non-commuting race
/// must still be found (losing it would mean the checker went blind, not
/// that the engine got better).
fn cmd_check_explore(args: &Args) -> Result<ExitCode, ExitCode> {
    let max_schedules = args.get("--max-schedules", num)?.unwrap_or(2048);
    let scenarios = match args.get("--scenario", text)? {
        Some(name) => vec![CheckScenario::named(&name).ok_or_else(|| {
            eprintln!("no checker scenario `{name}`; committed scenarios:");
            for sc in CheckScenario::all() {
                eprintln!("  {} — {}", sc.name, sc.about);
            }
            ExitCode::from(1)
        })?],
        None => CheckScenario::exploration_targets(),
    };
    let cfg = ExploreConfig {
        max_schedules,
        prune: !args.has("--no-prune"),
    };
    let mut passed = true;
    for sc in scenarios {
        let out = explore(&sc, &cfg);
        print!("{}", out.render(sc.name));
        if !out.completed {
            eprintln!(
                "ERROR: `{}` exhausted its schedule budget ({max_schedules}) before \
                 draining the frontier; raise --max-schedules",
                sc.name
            );
            passed = false;
        } else if out.converged() == sc.expect_divergence {
            eprintln!(
                "ERROR: `{}` {}",
                sc.name,
                if sc.expect_divergence {
                    "was expected to expose its committed race, but every schedule converged"
                } else {
                    "was expected to be confluent, but a schedule diverged"
                }
            );
            passed = false;
        }
    }
    Ok(exit_code(passed))
}

/// The fingerprint backstop: recompute the probe scenario's semantic
/// fingerprint and compare against the pinned constant.
fn cmd_check_pin(_: &Args) -> Result<ExitCode, ExitCode> {
    let run = CheckScenario::probe().engine().run_observed();
    let records: Vec<TraceRecord> = run.trace.records().cloned().collect();
    let fp = semantic_fingerprint(&records);
    println!("probe semantic fingerprint: {fp}");
    println!("pinned:                     {PINNED_SEMANTIC_FINGERPRINT}");
    if fp != PINNED_SEMANTIC_FINGERPRINT {
        eprintln!(
            "ERROR: engine semantics drifted from the pin; if deliberate, bump \
             ENGINE_SEMANTICS_VERSION (currently {ENGINE_SEMANTICS_VERSION}) and re-pin \
             PINNED_SEMANTIC_FINGERPRINT in the same commit"
        );
        return Ok(ExitCode::from(2));
    }
    Ok(ExitCode::SUCCESS)
}

fn open_cache(dir: &str) -> Result<CellCache, ExitCode> {
    CellCache::open(Path::new(dir)).map_err(|e| fail(format!("cannot open cache {dir}: {e}")))
}

fn cmd_cache_stats(args: &Args) -> Result<ExitCode, ExitCode> {
    let claim_ttl = args
        .get("--claim-ttl", duration)?
        .unwrap_or(DEFAULT_CLAIM_TTL);
    let dir = args.operand();
    let s = open_cache(dir)?
        .stats(claim_ttl)
        .map_err(|e| fail(format!("cannot scan cache {dir}: {e}")))?;
    println!(
        "cache {dir}: {} entries ({} sweep, {} bench), {} stale-salt, {} foreign, {} bytes",
        s.entries, s.sweep_cells, s.bench_cells, s.stale_salt, s.foreign, s.bytes
    );
    println!(
        "claims: {} live, {} stale (older than {claim_ttl:?}; reaped by workers, never by gc)",
        s.claims, s.stale_claims
    );
    println!(
        "ages: oldest {}s, newest {}s; salt {}",
        s.oldest_secs,
        s.newest_secs,
        cache_salt()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_cache_gc(args: &Args) -> Result<ExitCode, ExitCode> {
    let max_age = args.get("--max-age", duration)?;
    let max_bytes = args.get("--max-bytes", num)?;
    if max_age.is_none() && max_bytes.is_none() {
        return Err(fail(
            "cache gc requires --max-age <duration> (e.g. 7d) and/or --max-bytes <N>",
        ));
    }
    let dir = args.operand();
    let out = open_cache(dir)?
        .gc(max_age, max_bytes)
        .map_err(|e| fail(format!("cache gc failed in {dir}: {e}")))?;
    println!(
        "cache {dir}: removed {} entries ({} bytes), kept {}",
        out.removed, out.bytes_freed, out.kept
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_fingerprint(_: &Args) -> Result<ExitCode, ExitCode> {
    println!("{}", cache_salt());
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &Args) -> Result<ExitCode, ExitCode> {
    let report = load_report(args.operand())?;
    println!("{}", report.policy_table().render());
    println!("{}", report.cell_table().render());
    Ok(ExitCode::SUCCESS)
}

fn cmd_gate(args: &Args) -> Result<ExitCode, ExitCode> {
    let cfg = gate_config(args)?;
    let baseline_path = args.get("--baseline", text)?.expect("a required flag");
    let baseline = load_report(&baseline_path)?;
    let candidate = load_report(args.operand())?;
    let outcome = gate(&baseline, &candidate, &cfg);
    print!("{}", outcome.render(&cfg));
    Ok(exit_code(outcome.passed(&cfg)))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if matches!(
        argv.first().map(String::as_str),
        None | Some("help" | "--help" | "-h")
    ) {
        eprint!("{}", help());
        return ExitCode::from(1);
    }
    match parse(&argv)
        .map_err(fail)
        .and_then(|args| (args.form.run)(&args))
    {
        Ok(code) | Err(code) => code,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A form's words plus one value per required operand.
    fn minimal(form: &Form) -> Vec<String> {
        let operands = form.usage.matches('<').map(|_| "x");
        let words = form.words().split(' ').chain(operands);
        words.map(String::from).collect()
    }

    /// `flag` as given on a command line: its name, then a value if it
    /// takes one.
    fn given(flag: Flag) -> Vec<String> {
        match name_value(flag) {
            (name, "") => vec![name.into()],
            (name, _) => vec![name.into(), "v".into()],
        }
    }

    /// `minimal` plus every required flag.
    fn valid(form: &Form) -> Vec<String> {
        let required = REQUIRED.iter().filter_map(|name| form.flag(name));
        [minimal(form), required.flat_map(given).collect()].concat()
    }

    fn err(argv: Vec<String>) -> String {
        parse(&argv).err().unwrap_or_default()
    }

    #[test]
    fn every_form_parses_to_itself() {
        for form in VERBS {
            let args = parse(&valid(form)).unwrap_or_else(|e| panic!("{}: {e}", form.usage));
            assert_eq!(args.form.usage, form.usage);
        }
    }

    #[test]
    fn every_form_refuses_malformed_flags() {
        for form in VERBS {
            let bogus = [valid(form), vec!["--bogus".into()]].concat();
            let want = format!("unknown flag --bogus for {}", form.words());
            assert_eq!(err(bogus), want);
            for &flag in form.flags {
                let twice = [valid(form), given(flag), given(flag)].concat();
                assert!(err(twice).contains("given twice"), "{flag}");
                let name = name_value(flag).0;
                if given(flag).len() == 2 {
                    for tail in [vec![name.into()], vec![name.into(), "--bogus".into()]] {
                        let argv = [minimal(form), tail].concat();
                        assert!(err(argv).contains("needs a value"), "{flag}");
                    }
                }
            }
        }
    }

    #[test]
    fn operand_counts_pairs_and_required_flags_are_enforced() {
        for form in VERBS {
            let extra = [valid(form), vec!["a".into(), "b".into(), "c".into()]].concat();
            assert!(err(extra).starts_with("usage:"), "{}", form.usage);
            for (a, b) in EITHER {
                if let (Some(fa), Some(fb)) = (form.flag(a), form.flag(b)) {
                    let both = [valid(form), given(fa), given(fb)].concat();
                    assert!(err(both).contains("mutually exclusive"), "{}", form.usage);
                }
            }
        }
        let gate = vec!["gate".into(), "r.json".into()];
        assert_eq!(err(gate), "gate requires --baseline <baseline.json>");
        let diff = ["trace", "diff", "a", "b"].map(String::from).to_vec();
        assert!(err(diff).starts_with("unknown subcommand"));
    }

    #[test]
    fn help_names_every_form_and_flag() {
        let text = help();
        for form in VERBS {
            assert!(text.contains(&format!("flexpipe-fleet {}", form.usage)));
            for &flag in form.flags {
                let (spec, about) = spec_about(flag);
                assert!(!about.is_empty(), "{flag}");
                assert!(text.contains(&format!("{spec:<28} {about}")), "{flag}");
            }
        }
        assert!(text.contains("[--cache <dir> | --no-cache]"));
        assert!(text.contains("[--time-scale <x> | --unpaced]"));
        assert!(text.contains("[--shard <i/n> | --claim-ttl <dur>]"));
        assert!(text.contains("gate <report.json> --baseline <baseline.json> ["));
    }
}
