//! The `flexpipe-fleet` CLI: declarative scenario sweeps over the FlexPipe
//! serving simulator.
//!
//! ```text
//! flexpipe-fleet init [spec.json]                 write a 24-cell template sweep
//! flexpipe-fleet run <spec.json> [options]        execute the sweep in parallel
//!     --out <report.json>     write the JSON artifact (default: <spec>.report.json)
//!     --threads <n>           worker threads (default: one per core)
//!     --quiet                 suppress per-cell progress on stderr
//!     --gate <baseline.json>  one-shot CI mode: gate the fresh report
//!                             against a committed baseline after the run
//!     --tolerance <frac>      gate tolerance when --gate is given
//!     --verbose               structured per-cell start/finish lines on
//!                             stderr (wall ms, truncation flag)
//! flexpipe-fleet bench init [bench.json]          write the engine-tunable bench template
//! flexpipe-fleet bench <bench.json> [options]     sweep engine tunables × rates
//!     --out <report.json>     write the byte-stable artifact (wall-clock excluded)
//!     --threads <n>           worker threads (the artifact is byte-identical
//!                             at any count)
//!     --rates <a,b,..>        override the spec's rate axis (CI smoke: --rates 100)
//!     --quiet                 suppress per-cell progress on stderr
//! flexpipe-fleet campaign init [campaign.json]    write the CI campaign template
//! flexpipe-fleet campaign <campaign.json> [options]
//!     --out-dir <dir>         artifact directory (default <name>.campaign):
//!                             one <spec>.report.json per entry + campaign.json
//!     --cache <dir>           override the spec's cache directory
//!     --no-cache              compute every cell, touch no cache
//!     --threads <n>           worker threads (default: one per core)
//!     --quiet                 suppress per-cell progress on stderr
//!     --assert-warm           exit 2 unless every cell was a cache hit
//!     --gate <dir>            gate each sweep artifact against the same-named
//!                             report in <dir>; exit 2 on any regression
//!     --tolerance <frac>      gate tolerance when --gate is given
//!     --verbose               per-cell start/finish lines with cache
//!                             hit/miss and wall ms on stderr
//! flexpipe-fleet campaign assemble <campaign.json> [options]
//!     --cache <dir>           override the spec's cache directory
//!     --out-dir <dir>         artifact directory (default <name>.campaign);
//!                             assembles the manifest + reports from the
//!                             cache alone — no cell is ever computed.
//!                             Exit 2 naming every missing key when the
//!                             cache is incomplete: the push-button "did
//!                             the worker fleet finish?" check
//! flexpipe-fleet worker <campaign.json> [options]
//!     --cache <dir>           override the spec's cache directory
//!     --store localdisk|log   backend for a fresh cache dir (an existing
//!                             dir keeps its detected backend)
//!     --shard i/n             deterministic shard mode: take exactly the
//!                             cells whose key hashes to shard i of n
//!                             (stateless, no coordination)
//!     --claim-ttl <dur>       claim mode (default): heartbeat TTL after
//!                             which a peer's claim is presumed dead and
//!                             reaped (default 60s)
//!     --worker-id <id>        claim identity (default w<pid>; give each
//!                             machine a stable unique id)
//!     --max-cells <n>         stop after computing n cells (chunked
//!                             draining)
//!     --threads <n>           worker threads (default: one per core)
//!     --quiet                 suppress per-cell progress on stderr
//! flexpipe-fleet trace record <spec.json> [options]
//!     --cell <id>             cell to trace (default: the grid's first cell)
//!     --mode off|ring[:N]|full  recorder mode (default full)
//!     --out <trace.jsonl>     trace file (default <cell-id>.trace.jsonl);
//!                             virtual-time stamped, byte-stable across
//!                             runs and thread counts
//! flexpipe-fleet trace summarize <trace.jsonl>    per-kind counts + occupancy table
//! flexpipe-fleet trace diff <a.jsonl> <b.jsonl>   semantic first-divergence report
//!                                                 (per-entity, modulo the commutation
//!                                                 relation); exit 0 equivalent, 2 diverged
//!     --textual               compare raw lines instead (the old byte-level diff)
//! flexpipe-fleet trace profile [--instances N]    engine dispatch wall time per event
//!                                                 kind at N single-stage instances
//!                                                 (default 1500, range 1..=100000),
//!                                                 timed from outside the engine one
//!                                                 step at a time
//! flexpipe-fleet serve init [serve.json]          write the live-serve spec template
//! flexpipe-fleet serve <serve.json> [options]     run the sharded live-serving gateway
//!     --out-dir <dir>         artifact directory (default <name>.serve):
//!                             recording.json + one shard<i>.report.json per shard
//!     --time-scale <x>        virtual seconds per wall second (default 1.0;
//!                             e.g. 50 fast-forwards a 10s spec into 200ms)
//!     --unpaced               virtual pacing: no wall clock at all, run is
//!                             byte-stable outright
//!     --spill least-loaded[:T] cross-shard spillover: re-place a request on
//!                             the least-loaded shard when its home shard is
//!                             more than T requests deeper (default: none)
//! flexpipe-fleet serve replay <recording.json> [--out-dir <dir>]
//!                                                 re-execute a recorded live run;
//!                                                 per-shard reports are byte-identical
//!                                                 to the recorded run's, and the
//!                                                 re-assembled recording must equal
//!                                                 the input (exit 2 otherwise)
//! flexpipe-fleet check equiv <a.jsonl> <b.jsonl>  semantic trace equivalence; exit 0
//!                                                 equivalent, 2 with the first per-entity
//!                                                 divergence otherwise
//! flexpipe-fleet check equiv --cross-shard [--shards N] [--spec serve.json]
//!                                                 serve the pinned non-interfering workload
//!                                                 at N shards (default 2) and at 1 shard,
//!                                                 then require the merged request streams
//!                                                 to be semantically equivalent to the
//!                                                 canonical trace (request-stream
//!                                                 projection + per-request-stream instance
//!                                                 alpha-renaming); exit 2 on divergence
//! flexpipe-fleet check explore [options]          bounded interleaving exploration of the
//!                                                 committed checker scenarios; exit 2 if any
//!                                                 scenario's verdict contradicts its
//!                                                 committed expectation
//!     --scenario <name>       explore one scenario (default: every committed
//!                             exploration target; the fingerprint probe is
//!                             fingerprinted, not explored)
//!     --max-schedules <n>     schedule budget per scenario (default 2048)
//!     --no-prune              disable persistent-set pruning
//! flexpipe-fleet check pin                        recompute the probe scenario's semantic
//!                                                 fingerprint; exit 2 if it drifted from
//!                                                 the pinned constant
//! flexpipe-fleet cache stats <dir> [--claim-ttl <dur>]
//!                                                 cache entry / claim / size / age
//!                                                 summary (claims counted separately
//!                                                 from cell entries)
//! flexpipe-fleet cache gc <dir> [--max-age <dur>] [--max-bytes <N>]
//!                                                 drop entries older than e.g. 7d
//!                                                 and/or LRU-evict (oldest first)
//!                                                 down to a total size cap; live
//!                                                 worker claims are never reaped
//! flexpipe-fleet fingerprint                      print the cell-cache salt
//! flexpipe-fleet compare <report.json>            render the tables of an artifact
//! flexpipe-fleet gate <report.json> --baseline <base.json> [options]
//!     --tolerance <frac>      allowed relative degradation (default 0.02)
//!     --strict-cells          grid changes fail the gate
//! ```
//!
//! Every spec file is JSON. A flag a verb does not take is a usage error
//! that names the flag.
//!
//! Exit codes: 0 success / gate pass, 1 usage or I/O error, 2 gate /
//! `--assert-warm` fail.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use flexpipe_check::{
    check_equiv, explore, semantic_fingerprint, CheckScenario, ExploreConfig,
    PINNED_SEMANTIC_FINGERPRINT,
};
use flexpipe_fleet::{
    assemble_campaign, cache_salt, find_cell, gate::gate, parse_bench, parse_campaign, parse_spec,
    profile_dispatch, record_cell_trace, run_bench, run_campaign, run_sweep, run_worker,
    AssembleOutcome, BenchSpec, CampaignOptions, CampaignSpec, CellCache, FleetReport, GateConfig,
    RunOptions, SpecReport, StoreKind, SweepSpec, WorkerOptions,
};
use flexpipe_gateway::{
    replay_with, serve_with, LeastLoadedSpillover, NoSpillover, Pacing, PaperSetup, Recording,
    ServeOutcome, ServeSpec, SpilloverPolicy,
};
use flexpipe_metrics::{fmt_f, Table};
use flexpipe_obs::{first_divergence, parse_jsonl, TraceRecord, TraceSummary};
use flexpipe_serving::{TraceMode, ENGINE_SEMANTICS_VERSION};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  flexpipe-fleet init [spec.json]\n  flexpipe-fleet run <spec.json> [--out report.json] [--threads N] [--quiet] [--verbose] [--gate baseline.json [--tolerance 0.02]]\n  flexpipe-fleet bench init [bench.json]\n  flexpipe-fleet bench <bench.json> [--out report.json] [--threads N] [--rates 100,200] [--quiet]\n  flexpipe-fleet campaign init [campaign.json]\n  flexpipe-fleet campaign <campaign.json> [--out-dir DIR] [--cache DIR | --no-cache] [--store localdisk|log] [--threads N] [--quiet] [--verbose] [--assert-warm] [--gate DIR [--tolerance 0.02]]\n  flexpipe-fleet campaign assemble <campaign.json> [--cache DIR] [--out-dir DIR]\n  flexpipe-fleet worker <campaign.json> [--cache DIR] [--store localdisk|log] [--shard i/n | --claim-ttl DUR] [--worker-id ID] [--max-cells N] [--threads N] [--quiet] [--verbose]\n  flexpipe-fleet trace record <spec.json> [--cell ID] [--mode off|ring[:N]|full] [--out trace.jsonl]\n  flexpipe-fleet trace summarize <trace.jsonl>\n  flexpipe-fleet trace diff <a.jsonl> <b.jsonl> [--textual]\n  flexpipe-fleet trace profile [--instances N]\n  flexpipe-fleet serve init [serve.json]\n  flexpipe-fleet serve <serve.json> [--out-dir DIR] [--time-scale X | --unpaced] [--spill least-loaded[:T]]\n  flexpipe-fleet serve replay <recording.json> [--out-dir DIR]\n  flexpipe-fleet check equiv <a.jsonl> <b.jsonl>\n  flexpipe-fleet check equiv --cross-shard [--shards N] [--spec serve.json]\n  flexpipe-fleet check explore [--scenario NAME] [--max-schedules N] [--no-prune]\n  flexpipe-fleet check pin\n  flexpipe-fleet cache stats <dir> [--claim-ttl DUR]\n  flexpipe-fleet cache gc <dir> [--max-age <90s|15m|12h|7d>] [--max-bytes <N>]\n  flexpipe-fleet fingerprint\n  flexpipe-fleet compare <report.json>\n  flexpipe-fleet gate <report.json> --baseline <baseline.json> [--tolerance 0.02] [--strict-cells]"
    );
    ExitCode::from(1)
}

fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read {path}: {e}");
        ExitCode::from(1)
    })
}

fn write(path: &str, contents: &str) -> Result<(), ExitCode> {
    std::fs::write(path, contents).map_err(|e| {
        eprintln!("cannot write {path}: {e}");
        ExitCode::from(1)
    })
}

fn load_trace(path: &str) -> Result<Vec<TraceRecord>, ExitCode> {
    parse_jsonl(&read(path)?).map_err(|e| {
        eprintln!("cannot parse trace {path}: {e}");
        ExitCode::from(1)
    })
}

fn load_report(path: &str) -> Result<FleetReport, ExitCode> {
    let text = read(path)?;
    FleetReport::from_json(&text).map_err(|e| {
        eprintln!("cannot parse report {path}: {e}");
        ExitCode::from(1)
    })
}

/// Pulls the value following a `--flag` out of the argument list.
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, ExitCode> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            eprintln!("{flag} needs a value");
            return Err(ExitCode::from(1));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Ok(Some(v))
    } else {
        Ok(None)
    }
}

/// Pulls a boolean `--flag` out of the argument list.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

/// Refuses a flag the verb does not take. Call once the verb has pulled
/// out every flag it knows: any argument left that starts with `--` is
/// unknown, and is named instead of being read as a positional.
fn reject_unknown_flags(args: &[String], verb: &str) -> Result<(), ExitCode> {
    match args.iter().find(|a| a.starts_with("--")) {
        Some(flag) => {
            eprintln!("unknown flag {flag} for {verb}");
            Err(ExitCode::from(1))
        }
        None => Ok(()),
    }
}

/// Pulls `--store localdisk|log` out of the argument list.
fn parse_store(args: &mut Vec<String>) -> Result<Option<StoreKind>, ExitCode> {
    match take_flag_value(args, "--store")? {
        None => Ok(None),
        Some(v) => StoreKind::parse(&v).map(Some).ok_or_else(|| {
            eprintln!("--store must be `localdisk` or `log`, got `{v}`");
            ExitCode::from(1)
        }),
    }
}

/// Parses a campaign file and resolves its base directory (entry paths
/// and the spec's `cache_dir` resolve relative to the campaign file, so
/// every campaign-shaped subcommand behaves identically from any working
/// directory).
fn load_campaign(spec_path: &str) -> Result<(CampaignSpec, PathBuf), ExitCode> {
    let spec = parse_campaign(spec_path, &read(spec_path)?).map_err(|e| {
        eprintln!("{e}");
        ExitCode::from(1)
    })?;
    let base_dir = Path::new(spec_path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."))
        .to_path_buf();
    Ok((spec, base_dir))
}

fn cmd_init(args: Vec<String>) -> Result<ExitCode, ExitCode> {
    reject_unknown_flags(&args, "init")?;
    let path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "sweep.json".to_string());
    let spec = SweepSpec::template();
    let json = serde_json::to_string_pretty(&spec).map_err(|e| {
        eprintln!("template serialization failed: {e}");
        ExitCode::from(1)
    })?;
    write(&path, &format!("{json}\n"))?;
    eprintln!(
        "wrote template sweep ({} cells) to {path}",
        spec.expand().len()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(mut args: Vec<String>) -> Result<ExitCode, ExitCode> {
    let out = take_flag_value(&mut args, "--out")?;
    let threads = match take_flag_value(&mut args, "--threads")? {
        Some(t) => t.parse::<usize>().map_err(|_| {
            eprintln!("--threads needs an integer");
            ExitCode::from(1)
        })?,
        None => 0,
    };
    let quiet = take_flag(&mut args, "--quiet");
    let verbose = take_flag(&mut args, "--verbose");
    let gate_baseline = take_flag_value(&mut args, "--gate")?;
    let tolerance = match take_flag_value(&mut args, "--tolerance")? {
        Some(t) => t.parse::<f64>().map_err(|_| {
            eprintln!("--tolerance needs a number (e.g. 0.02)");
            ExitCode::from(1)
        })?,
        None => GateConfig::default().tolerance,
    };
    reject_unknown_flags(&args, "run")?;
    let [spec_path] = args.as_slice() else {
        return Err(usage());
    };

    let spec = parse_spec(spec_path, &read(spec_path)?).map_err(|e| {
        eprintln!("{e}");
        ExitCode::from(1)
    })?;
    let report = run_sweep(
        &spec,
        &RunOptions {
            threads,
            quiet,
            verbose,
        },
    )
    .map_err(|e| {
        eprintln!("{e}");
        ExitCode::from(1)
    })?;

    println!("{}", report.policy_table().render());
    println!("{}", report.cell_table().render());

    let out_path = out.unwrap_or_else(|| format!("{}.report.json", spec.name));
    write(&out_path, &report.to_json())?;
    eprintln!("wrote report to {out_path}");

    // One-shot CI mode: run-and-gate in a single invocation, exit code
    // matching the `gate` subcommand (2 on regression).
    if let Some(baseline_path) = gate_baseline {
        let cfg = GateConfig {
            tolerance,
            ..GateConfig::default()
        };
        let baseline = load_report(&baseline_path)?;
        let outcome = gate(&baseline, &report, &cfg);
        print!("{}", outcome.render(&cfg));
        if !outcome.passed(&cfg) {
            return Ok(ExitCode::from(2));
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_bench(mut args: Vec<String>) -> Result<ExitCode, ExitCode> {
    // `bench init [path]`: write the engine-tunable template.
    if args.first().map(String::as_str) == Some("init") {
        reject_unknown_flags(&args, "bench init")?;
        let path = args
            .get(1)
            .cloned()
            .unwrap_or_else(|| "bench.json".to_string());
        let spec = BenchSpec::template();
        let json = serde_json::to_string_pretty(&spec).map_err(|e| {
            eprintln!("template serialization failed: {e}");
            ExitCode::from(1)
        })?;
        write(&path, &format!("{json}\n"))?;
        eprintln!(
            "wrote template bench ({} cells) to {path}",
            spec.expand().len()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let out = take_flag_value(&mut args, "--out")?;
    let threads = match take_flag_value(&mut args, "--threads")? {
        Some(t) => t.parse::<usize>().map_err(|_| {
            eprintln!("--threads needs an integer");
            ExitCode::from(1)
        })?,
        None => 0,
    };
    let quiet = take_flag(&mut args, "--quiet");
    let rates = take_flag_value(&mut args, "--rates")?;
    reject_unknown_flags(&args, "bench")?;
    let [spec_path] = args.as_slice() else {
        return Err(usage());
    };

    let mut spec: BenchSpec = parse_bench(spec_path, &read(spec_path)?).map_err(|e| {
        eprintln!("{e}");
        ExitCode::from(1)
    })?;
    if let Some(rates) = rates {
        let parsed: Result<Vec<f64>, _> = rates.split(',').map(str::parse::<f64>).collect();
        spec.rates = parsed.map_err(|_| {
            eprintln!("--rates needs a comma-separated number list (e.g. 100,200)");
            ExitCode::from(1)
        })?;
    }

    let (report, timings) = run_bench(
        &spec,
        &RunOptions {
            threads,
            quiet,
            ..Default::default()
        },
    )
    .map_err(|e| {
        eprintln!("{e}");
        ExitCode::from(1)
    })?;

    println!("{}", report.table(&timings).render());
    let out_path = out.unwrap_or_else(|| format!("{}.report.json", spec.name));
    write(&out_path, &report.to_json())?;
    eprintln!("wrote bench report to {out_path} (wall-clock excluded: artifact is byte-stable)");
    Ok(ExitCode::SUCCESS)
}

/// Pulls `--spill least-loaded[:T]` out of the argument list.
fn parse_spill(args: &mut Vec<String>) -> Result<Box<dyn SpilloverPolicy>, ExitCode> {
    match take_flag_value(args, "--spill")? {
        None => Ok(Box::new(NoSpillover)),
        Some(v) => {
            let (kind, threshold) = match v.split_once(':') {
                Some((k, t)) => {
                    let t = t.parse::<usize>().map_err(|_| {
                        eprintln!("--spill least-loaded:<T> needs an integer threshold, got `{v}`");
                        ExitCode::from(1)
                    })?;
                    (k, t)
                }
                None => (v.as_str(), 0),
            };
            if kind != "least-loaded" {
                eprintln!("--spill must be `least-loaded` or `least-loaded:<T>`, got `{v}`");
                return Err(ExitCode::from(1));
            }
            Ok(Box::new(LeastLoadedSpillover { threshold }))
        }
    }
}

/// Writes a serve outcome's artifact set: the recording plus one
/// per-shard report, all byte-stable given the recording.
fn write_serve_artifacts(dir: &str, outcome: &ServeOutcome) -> Result<(), ExitCode> {
    std::fs::create_dir_all(dir).map_err(|e| {
        eprintln!("cannot create {dir}: {e}");
        ExitCode::from(1)
    })?;
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

/// `fleet serve`: the sharded live-serving gateway — init a spec, run it
/// live (wall-paced or virtual), or replay a recording.
fn cmd_serve(mut args: Vec<String>) -> Result<ExitCode, ExitCode> {
    // `serve init [path]`: write the spec template.
    if args.first().map(String::as_str) == Some("init") {
        reject_unknown_flags(&args, "serve init")?;
        let path = args
            .get(1)
            .cloned()
            .unwrap_or_else(|| "serve.json".to_string());
        let spec = ServeSpec::template();
        let json = serde_json::to_string_pretty(&spec).map_err(|e| {
            eprintln!("template serialization failed: {e}");
            ExitCode::from(1)
        })?;
        write(&path, &format!("{json}\n"))?;
        eprintln!(
            "wrote template serve spec ({} shards) to {path}",
            spec.shards
        );
        return Ok(ExitCode::SUCCESS);
    }

    // `serve replay <recording>`: deterministic re-execution.
    if args.first().map(String::as_str) == Some("replay") {
        args.remove(0);
        let out_dir = take_flag_value(&mut args, "--out-dir")?;
        reject_unknown_flags(&args, "serve replay")?;
        let [rec_path] = args.as_slice() else {
            return Err(usage());
        };
        let recording = Recording::from_json(&read(rec_path)?).map_err(|e| {
            eprintln!("cannot parse recording {rec_path}: {e}");
            ExitCode::from(1)
        })?;
        let setup = PaperSetup::for_model(recording.spec.model);
        let outcome = replay_with(&recording, &setup, TraceMode::Off).map_err(|e| {
            eprintln!("{e}");
            ExitCode::from(1)
        })?;
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
        return Ok(ExitCode::SUCCESS);
    }

    let out_dir = take_flag_value(&mut args, "--out-dir")?;
    let unpaced = take_flag(&mut args, "--unpaced");
    let time_scale = match take_flag_value(&mut args, "--time-scale")? {
        Some(v) => v.parse::<f64>().map_err(|_| {
            eprintln!("--time-scale needs a number (e.g. 50)");
            ExitCode::from(1)
        })?,
        None => 1.0,
    };
    let spill = parse_spill(&mut args)?;
    reject_unknown_flags(&args, "serve")?;
    let [spec_path] = args.as_slice() else {
        return Err(usage());
    };
    let spec: ServeSpec = serde_json::from_str(&read(spec_path)?).map_err(|e| {
        eprintln!("cannot parse serve spec {spec_path}: {e}");
        ExitCode::from(1)
    })?;
    spec.validate().map_err(|e| {
        eprintln!("{spec_path}: {e}");
        ExitCode::from(1)
    })?;
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
        serve_with(&spec, pacing, spill.as_ref(), &setup, TraceMode::Off).map_err(|e| {
            eprintln!("{e}");
            ExitCode::from(1)
        })?;
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

fn cmd_campaign(mut args: Vec<String>) -> Result<ExitCode, ExitCode> {
    // `campaign init [path]`: write the CI campaign template.
    if args.first().map(String::as_str) == Some("init") {
        reject_unknown_flags(&args, "campaign init")?;
        let path = args
            .get(1)
            .cloned()
            .unwrap_or_else(|| "campaign.json".to_string());
        let spec = CampaignSpec::template();
        let json = serde_json::to_string_pretty(&spec).map_err(|e| {
            eprintln!("template serialization failed: {e}");
            ExitCode::from(1)
        })?;
        write(&path, &format!("{json}\n"))?;
        eprintln!(
            "wrote template campaign ({} entries) to {path}",
            spec.entries.len()
        );
        return Ok(ExitCode::SUCCESS);
    }

    // `campaign assemble <campaign>`: cache-only artifact assembly.
    if args.first().map(String::as_str) == Some("assemble") {
        args.remove(0);
        return cmd_campaign_assemble(args);
    }

    let out_dir = take_flag_value(&mut args, "--out-dir")?;
    let cache_override = take_flag_value(&mut args, "--cache")?;
    let no_cache = take_flag(&mut args, "--no-cache");
    let store = parse_store(&mut args)?;
    let threads = match take_flag_value(&mut args, "--threads")? {
        Some(t) => t.parse::<usize>().map_err(|_| {
            eprintln!("--threads needs an integer");
            ExitCode::from(1)
        })?,
        None => 0,
    };
    let quiet = take_flag(&mut args, "--quiet");
    let verbose = take_flag(&mut args, "--verbose");
    let assert_warm = take_flag(&mut args, "--assert-warm");
    let gate_dir = take_flag_value(&mut args, "--gate")?;
    let tolerance = match take_flag_value(&mut args, "--tolerance")? {
        Some(t) => t.parse::<f64>().map_err(|_| {
            eprintln!("--tolerance needs a number (e.g. 0.02)");
            ExitCode::from(1)
        })?,
        None => GateConfig::default().tolerance,
    };
    if no_cache && cache_override.is_some() {
        eprintln!("--no-cache and --cache are mutually exclusive");
        return Err(ExitCode::from(1));
    }
    reject_unknown_flags(&args, "campaign")?;
    let [spec_path] = args.as_slice() else {
        return Err(usage());
    };

    let (spec, base_dir) = load_campaign(spec_path)?;
    let cache_dir = if no_cache {
        None
    } else {
        Some(match cache_override {
            Some(dir) => PathBuf::from(dir),
            None => base_dir.join(&spec.cache_dir),
        })
    };
    let cache_enabled = cache_dir.is_some();

    let result = run_campaign(
        &spec,
        &base_dir,
        &CampaignOptions {
            run: RunOptions {
                threads,
                quiet,
                verbose,
            },
            cache_dir,
            store,
        },
    )
    .map_err(|e| {
        eprintln!("{e}");
        ExitCode::from(1)
    })?;

    for report in &result.reports {
        match report {
            SpecReport::Sweep(r) => println!("{}", r.policy_table().render()),
            SpecReport::Bench(r) => println!("{}", r.table(&[]).render()),
        }
    }
    println!("{}", result.stats.render(cache_enabled));

    let out_dir = out_dir.unwrap_or_else(|| format!("{}.campaign", spec.name));
    let written = result.write(Path::new(&out_dir)).map_err(|e| {
        eprintln!("cannot write campaign artifacts to {out_dir}: {e}");
        ExitCode::from(1)
    })?;
    eprintln!("wrote {} artifacts to {out_dir}", written.len());

    // Failure checks; both exit 2.
    let mut failed = false;
    if assert_warm && result.stats.misses > 0 {
        eprintln!(
            "ERROR: --assert-warm, but {} of {} cells missed the cache",
            result.stats.misses, result.stats.cells
        );
        failed = true;
    }
    if let Some(dir) = gate_dir {
        let cfg = GateConfig {
            tolerance,
            ..GateConfig::default()
        };
        for (entry, report) in result.manifest.entries.iter().zip(&result.reports) {
            if let SpecReport::Sweep(candidate) = report {
                let baseline = load_report(&format!("{dir}/{}", entry.report))?;
                let outcome = gate(&baseline, candidate, &cfg);
                print!("[{}] {}", entry.name, outcome.render(&cfg));
                if !outcome.passed(&cfg) {
                    failed = true;
                }
            }
        }
    }
    Ok(if failed {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

/// `fleet campaign assemble`: build the full artifact set from the cache
/// alone. Exit 2 naming every missing key when the cache is incomplete.
fn cmd_campaign_assemble(mut args: Vec<String>) -> Result<ExitCode, ExitCode> {
    let out_dir = take_flag_value(&mut args, "--out-dir")?;
    let cache_override = take_flag_value(&mut args, "--cache")?;
    reject_unknown_flags(&args, "campaign assemble")?;
    let [spec_path] = args.as_slice() else {
        return Err(usage());
    };
    let (spec, base_dir) = load_campaign(spec_path)?;
    let cache_dir = match cache_override {
        Some(dir) => PathBuf::from(dir),
        None => base_dir.join(&spec.cache_dir),
    };
    let outcome = assemble_campaign(&spec, &base_dir, &cache_dir).map_err(|e| {
        eprintln!("{e}");
        ExitCode::from(1)
    })?;
    match outcome {
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
            let written = result.write(Path::new(&out_dir)).map_err(|e| {
                eprintln!("cannot write campaign artifacts to {out_dir}: {e}");
                ExitCode::from(1)
            })?;
            eprintln!(
                "assembled {} artifacts from cache {} into {out_dir}",
                written.len(),
                cache_dir.display(),
            );
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// `fleet worker`: one distributed campaign worker process.
fn cmd_worker(mut args: Vec<String>) -> Result<ExitCode, ExitCode> {
    let cache_override = take_flag_value(&mut args, "--cache")?;
    let store = parse_store(&mut args)?;
    let shard = match take_flag_value(&mut args, "--shard")? {
        None => None,
        Some(v) => {
            let parsed = v
                .split_once('/')
                .and_then(|(i, n)| Some((i.parse::<usize>().ok()?, n.parse::<usize>().ok()?)));
            match parsed {
                Some((i, n)) if n > 0 && i < n => Some((i, n)),
                _ => {
                    eprintln!("--shard needs i/n with 0 <= i < n (e.g. 0/3), got `{v}`");
                    return Err(ExitCode::from(1));
                }
            }
        }
    };
    let claim_ttl = match take_flag_value(&mut args, "--claim-ttl")? {
        Some(v) => flexpipe_fleet::cache::parse_duration(&v).map_err(|e| {
            eprintln!("{e}");
            ExitCode::from(1)
        })?,
        None => flexpipe_fleet::DEFAULT_CLAIM_TTL,
    };
    let worker_id = take_flag_value(&mut args, "--worker-id")?;
    let max_cells = match take_flag_value(&mut args, "--max-cells")? {
        Some(v) => Some(v.parse::<usize>().map_err(|_| {
            eprintln!("--max-cells needs an integer");
            ExitCode::from(1)
        })?),
        None => None,
    };
    let threads = match take_flag_value(&mut args, "--threads")? {
        Some(t) => t.parse::<usize>().map_err(|_| {
            eprintln!("--threads needs an integer");
            ExitCode::from(1)
        })?,
        None => 0,
    };
    let quiet = take_flag(&mut args, "--quiet");
    let verbose = take_flag(&mut args, "--verbose");
    reject_unknown_flags(&args, "worker")?;
    let [spec_path] = args.as_slice() else {
        return Err(usage());
    };

    let (spec, base_dir) = load_campaign(spec_path)?;
    let cache_dir = match cache_override {
        Some(dir) => PathBuf::from(dir),
        None => base_dir.join(&spec.cache_dir),
    };
    let mut opts = WorkerOptions {
        run: RunOptions {
            threads,
            quiet,
            verbose,
        },
        shard,
        claim_ttl,
        max_cells,
        store,
        ..Default::default()
    };
    if let Some(id) = worker_id {
        opts.worker_id = id;
    }
    run_worker(&spec, &base_dir, &cache_dir, &opts)
        .map(|_| ExitCode::SUCCESS)
        .map_err(|e| {
            eprintln!("{e}");
            ExitCode::from(1)
        })
}

fn cmd_trace(mut args: Vec<String>) -> Result<ExitCode, ExitCode> {
    if args.is_empty() {
        return Err(usage());
    }
    let verb = args.remove(0);
    match verb.as_str() {
        "record" => {
            let cell_id = take_flag_value(&mut args, "--cell")?;
            let mode = match take_flag_value(&mut args, "--mode")? {
                None => TraceMode::Full,
                Some(v) => TraceMode::parse(&v).ok_or_else(|| {
                    eprintln!("--mode must be off, ring, ring:<n> or full, got `{v}`");
                    ExitCode::from(1)
                })?,
            };
            let out = take_flag_value(&mut args, "--out")?;
            reject_unknown_flags(&args, "trace record")?;
            let [spec_path] = args.as_slice() else {
                return Err(usage());
            };
            let spec = parse_spec(spec_path, &read(spec_path)?).map_err(|e| {
                eprintln!("{e}");
                ExitCode::from(1)
            })?;
            spec.validate().map_err(|e| {
                eprintln!("{spec_path}: {e}");
                ExitCode::from(1)
            })?;
            let cell = match &cell_id {
                Some(id) => find_cell(&spec, id).ok_or_else(|| {
                    eprintln!("no cell `{id}` in {spec_path}; the grid has:");
                    for c in spec.expand() {
                        eprintln!("  {}", c.id());
                    }
                    ExitCode::from(1)
                })?,
                None => spec.expand().remove(0),
            };
            let (metrics, observed) = record_cell_trace(&spec, &cell, mode);
            let out_path = out.unwrap_or_else(|| format!("{}.trace.jsonl", cell.id()));
            write(&out_path, &observed.trace.to_jsonl())?;
            eprintln!(
                "cell {}: {} events seen, {} retained, {} evicted (mode {mode}); wrote {out_path}",
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
        "summarize" => {
            reject_unknown_flags(&args, "trace summarize")?;
            let [path] = args.as_slice() else {
                return Err(usage());
            };
            let records = load_trace(path)?;
            println!("{}", TraceSummary::from_records(&records).render(path));
            Ok(ExitCode::SUCCESS)
        }
        "diff" => {
            let textual = take_flag(&mut args, "--textual");
            reject_unknown_flags(&args, "trace diff")?;
            let [a, b] = args.as_slice() else {
                return Err(usage());
            };
            if textual {
                // The pre-checker byte-level comparison: line-exact, no
                // commutation relation. Useful when the question is "are
                // these files identical", not "do they mean the same".
                let left = read(a)?;
                let right = read(b)?;
                return match first_divergence(&left, &right) {
                    None => {
                        println!("traces identical ({} records)", left.lines().count());
                        Ok(ExitCode::SUCCESS)
                    }
                    Some(d) => {
                        print!("{}", d.render(a, b));
                        Ok(ExitCode::from(2))
                    }
                };
            }
            let left = load_trace(a)?;
            let right = load_trace(b)?;
            let report = check_equiv(&left, &right);
            print!("{}", report.render(a, b));
            Ok(if report.equivalent() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            })
        }
        "profile" => {
            let instances = match take_flag_value(&mut args, "--instances")? {
                Some(v) => v.parse::<u32>().map_err(|_| {
                    eprintln!("--instances needs an integer");
                    ExitCode::from(1)
                })?,
                None => 1500,
            };
            reject_unknown_flags(&args, "trace profile")?;
            if !args.is_empty() {
                return Err(usage());
            }
            eprintln!("profiling engine dispatch at {instances} single-stage instances...");
            let (metrics, profiler) = profile_dispatch(instances).map_err(|e| {
                eprintln!("{e}");
                ExitCode::from(1)
            })?;
            println!(
                "{}",
                profiler
                    .table(&format!(
                        "engine dispatch wall time per event kind at {instances} instances"
                    ))
                    .render()
            );
            if metrics.truncated {
                eprintln!("warning: profile run hit its step budget");
            }
            Ok(ExitCode::SUCCESS)
        }
        other => {
            eprintln!("unknown trace verb `{other}` (expected record, summarize, diff or profile)");
            Err(usage())
        }
    }
}

/// `fleet check equiv --cross-shard`: prove an N-shard live run is
/// request-equivalent to the 1-shard canonical run.
fn cmd_check_cross_shard(mut args: Vec<String>) -> Result<ExitCode, ExitCode> {
    let shards = match take_flag_value(&mut args, "--shards")? {
        Some(v) => v.parse::<u32>().map_err(|_| {
            eprintln!("--shards needs an integer");
            ExitCode::from(1)
        })?,
        None => 2,
    };
    let spec = match take_flag_value(&mut args, "--spec")? {
        Some(p) => {
            let mut s: ServeSpec = serde_json::from_str(&read(&p)?).map_err(|e| {
                eprintln!("cannot parse serve spec {p}: {e}");
                ExitCode::from(1)
            })?;
            s.shards = shards;
            s
        }
        None => flexpipe_gateway::cross_shard_check_spec(shards),
    };
    reject_unknown_flags(&args, "check equiv --cross-shard")?;
    if !args.is_empty() {
        return Err(usage());
    }
    spec.validate().map_err(|e| {
        eprintln!("{e}");
        ExitCode::from(1)
    })?;
    let mut canonical_spec = spec.clone();
    canonical_spec.shards = 1;

    eprintln!(
        "cross-shard check `{}`: {shards}-shard vs 1-shard canonical...",
        spec.name
    );
    let setup = PaperSetup::for_model(spec.model);
    let run = |s: &ServeSpec| {
        serve_with(s, Pacing::Virtual, &NoSpillover, &setup, TraceMode::Full).map_err(|e| {
            eprintln!("{e}");
            ExitCode::from(1)
        })
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
    Ok(if report.equivalent() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn cmd_check(mut args: Vec<String>) -> Result<ExitCode, ExitCode> {
    if args.is_empty() {
        return Err(usage());
    }
    let verb = args.remove(0);
    match verb.as_str() {
        // Semantic equivalence of two recorded traces: the checker's
        // commutation relation decides, not byte equality.
        "equiv" => {
            // `check equiv --cross-shard`: run the pinned non-interfering
            // workload at N shards and at 1 shard, and require the merged
            // request streams to be semantically equivalent to the
            // canonical trace (request-stream projection + per-stream
            // instance alpha-renaming — see flexpipe-check).
            if take_flag(&mut args, "--cross-shard") {
                return cmd_check_cross_shard(args);
            }
            reject_unknown_flags(&args, "check equiv")?;
            let [a, b] = args.as_slice() else {
                return Err(usage());
            };
            let left = load_trace(a)?;
            let right = load_trace(b)?;
            let report = check_equiv(&left, &right);
            print!("{}", report.render(a, b));
            Ok(if report.equivalent() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            })
        }
        // Bounded interleaving exploration over the committed scenarios.
        // A scenario passes when its verdict matches its committed
        // expectation: confluent scenarios must converge, and the known
        // non-commuting race must still be found (losing it would mean
        // the checker went blind, not that the engine got better).
        "explore" => {
            let scenario = take_flag_value(&mut args, "--scenario")?;
            let max_schedules = match take_flag_value(&mut args, "--max-schedules")? {
                Some(v) => v.parse::<usize>().map_err(|_| {
                    eprintln!("--max-schedules needs an integer");
                    ExitCode::from(1)
                })?,
                None => 2048,
            };
            let prune = !take_flag(&mut args, "--no-prune");
            reject_unknown_flags(&args, "check explore")?;
            if !args.is_empty() {
                return Err(usage());
            }
            let scenarios = match scenario {
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
                prune,
            };
            let mut failed = false;
            for sc in scenarios {
                let out = explore(&sc, &cfg);
                print!("{}", out.render(sc.name));
                if !out.completed {
                    eprintln!(
                        "ERROR: `{}` exhausted its schedule budget ({max_schedules}) before \
                         draining the frontier; raise --max-schedules",
                        sc.name
                    );
                    failed = true;
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
                    failed = true;
                }
            }
            Ok(if failed {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            })
        }
        // The fingerprint backstop: recompute the probe scenario's
        // semantic fingerprint and compare against the pinned constant.
        "pin" => {
            reject_unknown_flags(&args, "check pin")?;
            if !args.is_empty() {
                return Err(usage());
            }
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
        other => {
            eprintln!("unknown check verb `{other}` (expected equiv, explore or pin)");
            Err(usage())
        }
    }
}

fn cmd_cache(mut args: Vec<String>) -> Result<ExitCode, ExitCode> {
    if args.is_empty() {
        return Err(usage());
    }
    let verb = args.remove(0);
    match verb.as_str() {
        "stats" => {
            let claim_ttl = match take_flag_value(&mut args, "--claim-ttl")? {
                Some(v) => flexpipe_fleet::cache::parse_duration(&v).map_err(|e| {
                    eprintln!("{e}");
                    ExitCode::from(1)
                })?,
                None => flexpipe_fleet::DEFAULT_CLAIM_TTL,
            };
            reject_unknown_flags(&args, "cache stats")?;
            let [dir] = args.as_slice() else {
                return Err(usage());
            };
            let cache = CellCache::open(Path::new(dir)).map_err(|e| {
                eprintln!("cannot open cache {dir}: {e}");
                ExitCode::from(1)
            })?;
            let s = cache.stats_with_ttl(claim_ttl).map_err(|e| {
                eprintln!("cannot scan cache {dir}: {e}");
                ExitCode::from(1)
            })?;
            println!(
                "cache {dir} ({}): {} entries ({} sweep, {} bench), {} stale-salt, {} foreign, \
                 {} bytes",
                cache.backend().kind(),
                s.entries,
                s.sweep_cells,
                s.bench_cells,
                s.stale_salt,
                s.foreign,
                s.bytes
            );
            println!(
                "claims: {} live, {} stale (older than {claim_ttl:?}; reaped by workers, \
                 never by gc)",
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
        "gc" => {
            let max_age = match take_flag_value(&mut args, "--max-age")? {
                Some(v) => Some(flexpipe_fleet::cache::parse_duration(&v).map_err(|e| {
                    eprintln!("{e}");
                    ExitCode::from(1)
                })?),
                None => None,
            };
            let max_bytes = match take_flag_value(&mut args, "--max-bytes")? {
                Some(v) => Some(v.parse::<u64>().map_err(|_| {
                    eprintln!("--max-bytes needs a byte count (e.g. 104857600)");
                    ExitCode::from(1)
                })?),
                None => None,
            };
            if max_age.is_none() && max_bytes.is_none() {
                eprintln!(
                    "cache gc requires --max-age <duration> (e.g. 7d) and/or --max-bytes <N>"
                );
                return Err(ExitCode::from(1));
            }
            reject_unknown_flags(&args, "cache gc")?;
            let [dir] = args.as_slice() else {
                return Err(usage());
            };
            let cache = CellCache::open(Path::new(dir)).map_err(|e| {
                eprintln!("cannot open cache {dir}: {e}");
                ExitCode::from(1)
            })?;
            let out = cache.gc_bounded(max_age, max_bytes).map_err(|e| {
                eprintln!("cache gc failed in {dir}: {e}");
                ExitCode::from(1)
            })?;
            println!(
                "cache {dir}: removed {} entries ({} bytes), kept {}",
                out.removed, out.bytes_freed, out.kept
            );
            Ok(ExitCode::SUCCESS)
        }
        other => {
            eprintln!("unknown cache verb `{other}` (expected stats or gc)");
            Err(usage())
        }
    }
}

fn cmd_compare(args: Vec<String>) -> Result<ExitCode, ExitCode> {
    reject_unknown_flags(&args, "compare")?;
    let [path] = args.as_slice() else {
        return Err(usage());
    };
    let report = load_report(path)?;
    println!("{}", report.policy_table().render());
    println!("{}", report.cell_table().render());
    Ok(ExitCode::SUCCESS)
}

fn cmd_gate(mut args: Vec<String>) -> Result<ExitCode, ExitCode> {
    let Some(baseline_path) = take_flag_value(&mut args, "--baseline")? else {
        eprintln!("gate requires --baseline <baseline.json>");
        return Err(ExitCode::from(1));
    };
    let tolerance = match take_flag_value(&mut args, "--tolerance")? {
        Some(t) => t.parse::<f64>().map_err(|_| {
            eprintln!("--tolerance needs a number (e.g. 0.02)");
            ExitCode::from(1)
        })?,
        None => GateConfig::default().tolerance,
    };
    let strict_cells = take_flag(&mut args, "--strict-cells");
    reject_unknown_flags(&args, "gate")?;
    let [candidate_path] = args.as_slice() else {
        return Err(usage());
    };

    let cfg = GateConfig {
        tolerance,
        strict_cells,
        ..GateConfig::default()
    };
    let baseline = load_report(&baseline_path)?;
    let candidate = load_report(candidate_path)?;
    let outcome = gate(&baseline, &candidate, &cfg);
    print!("{}", outcome.render(&cfg));
    Ok(if outcome.passed(&cfg) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let cmd = args.remove(0);
    let result = match cmd.as_str() {
        "init" => cmd_init(args),
        "run" => cmd_run(args),
        "bench" => cmd_bench(args),
        "campaign" => cmd_campaign(args),
        "worker" => cmd_worker(args),
        "serve" => cmd_serve(args),
        "trace" => cmd_trace(args),
        "check" => cmd_check(args),
        "cache" => cmd_cache(args),
        "fingerprint" => reject_unknown_flags(&args, "fingerprint").map(|()| {
            println!("{}", cache_salt());
            ExitCode::SUCCESS
        }),
        "compare" => cmd_compare(args),
        "gate" => cmd_gate(args),
        "--help" | "-h" | "help" => return usage(),
        other => {
            eprintln!("unknown subcommand `{other}`");
            return usage();
        }
    };
    match result {
        Ok(code) => code,
        Err(code) => code,
    }
}
