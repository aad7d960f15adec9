//! End-to-end exercise of `flexpipe-fleet campaign`: cold → warm → resume
//! through the binary, including the two campaign contracts CI leans on —
//! a warm run is 100% hits with byte-identical artifacts, and a run
//! interrupted mid-way (step-budget truncation) resumes from the cache to
//! an artifact byte-identical to an uninterrupted run, at any thread
//! count. Plus the `cache stats` / `cache gc` / `fingerprint` tooling.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use flexpipe_fleet::FleetReport;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_flexpipe-fleet"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "flexpipe-campaign-e2e-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn sweep_json(name: &str, rates: &str, max_events: u64) -> String {
    format!(
        r#"{{
  "name": "{name}",
  "model": "Llama2_7B",
  "seed": 11,
  "horizon_secs": 8.0,
  "warmup_secs": 2.0,
  "slo_secs": 2.0,
  "slo_per_output_token_ms": 100.0,
  "background": "Idle",
  "lengths": {{
    "prompt_median": 128.0, "prompt_sigma": 0.0, "prompt_range": [128, 128],
    "output_mean": 8.0, "output_range": [8, 8]
  }},
  "max_events": {max_events},
  "cvs": [1.0],
  "rates": [{rates}],
  "clusters": [{{"Custom": {{"nodes": 6, "total_gpus": 8, "servers_per_rack": 3}}}}],
  "policies": [{{"Paper": "FlexPipe"}}, {{"Static": {{"stages": 2, "replicas": 1}}}}]
}}
"#
    )
}

fn bench_json() -> String {
    r#"{
  "name": "e2e-bench",
  "model": "Llama2_7B",
  "seed": 7,
  "horizon_secs": 6.0,
  "warmup_secs": 2.0,
  "slo_secs": 2.0,
  "slo_per_output_token_ms": 100.0,
  "background": "Idle",
  "lengths": {
    "prompt_median": 64.0, "prompt_sigma": 0.0, "prompt_range": [64, 64],
    "output_mean": 4.0, "output_range": [4, 4]
  },
  "max_events": 20000000,
  "cv": 1.0,
  "cluster": {"Custom": {"nodes": 4, "total_gpus": 6, "servers_per_rack": 4}},
  "policy": {"Static": {"stages": 2, "replicas": 1}},
  "rates": [3.0],
  "ubatch_sizes": [32],
  "prefill_token_caps": [256],
  "admission_batches": [8]
}
"#
    .to_string()
}

fn campaign_json(name: &str, entries: &[(&str, &str)]) -> String {
    let entries: Vec<String> = entries
        .iter()
        .map(|(kind, path)| format!(r#"    {{ "kind": "{kind}", "path": "{path}" }}"#))
        .collect();
    format!(
        "{{\n  \"name\": \"{name}\",\n  \"cache_dir\": \"cells\",\n  \"entries\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    )
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("spawn flexpipe-fleet");
    assert!(
        out.status.success(),
        "command failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Reads the deterministic artifact set of a campaign output directory.
/// The `campaign.timing.json` sidecar is wall-clock by design and is the
/// one file excluded from byte comparison.
fn read_dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|f| {
            let f = f.unwrap();
            (
                f.file_name().to_string_lossy().to_string(),
                std::fs::read(f.path()).unwrap(),
            )
        })
        .filter(|(name, _)| name != "campaign.timing.json")
        .collect();
    files.sort();
    files
}

#[test]
fn cold_warm_pipeline_is_all_hits_and_byte_identical() {
    let dir = tmp_dir("coldwarm");
    std::fs::write(
        dir.join("sweep.json"),
        sweep_json("e2e-sweep", "3.0", 20_000_000),
    )
    .unwrap();
    std::fs::write(dir.join("bench.json"), bench_json()).unwrap();
    std::fs::write(
        dir.join("campaign.json"),
        campaign_json(
            "e2e-campaign",
            &[("Sweep", "sweep.json"), ("Bench", "bench.json")],
        ),
    )
    .unwrap();

    // Cold: everything computes and persists.
    let out = run_ok(
        bin()
            .arg("campaign")
            .arg(dir.join("campaign.json"))
            .arg("--out-dir")
            .arg(dir.join("out-cold"))
            .arg("--threads")
            .arg("2")
            .arg("--quiet"),
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("0 hits, 3 misses over 3 cells"),
        "unexpected cold stats: {stdout}"
    );
    assert!(stdout.contains("3 stored"), "{stdout}");

    // Warm, different thread count, --assert-warm: 100% hits, exit 0.
    let out = run_ok(
        bin()
            .arg("campaign")
            .arg(dir.join("campaign.json"))
            .arg("--out-dir")
            .arg(dir.join("out-warm"))
            .arg("--threads")
            .arg("1")
            .arg("--quiet")
            .arg("--assert-warm"),
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("3 hits, 0 misses over 3 cells (100.0% hit rate"),
        "warm run was not all-hits: {stdout}"
    );

    // Byte-identical artifact set: manifest plus every report.
    let cold = read_dir_bytes(&dir.join("out-cold"));
    let warm = read_dir_bytes(&dir.join("out-warm"));
    assert_eq!(cold.len(), 3);
    assert_eq!(cold, warm, "cold and warm artifacts diverged");

    // The timing sidecar rides beside them: per-cell wall ms + cache
    // status, all-miss cold, all-hit warm.
    for (out, hit) in [("out-cold", false), ("out-warm", true)] {
        let text = std::fs::read_to_string(dir.join(out).join("campaign.timing.json")).unwrap();
        let timing: flexpipe_fleet::CampaignTiming = serde_json::from_str(&text).unwrap();
        assert_eq!(timing.cells.len(), 3, "{out}");
        assert!(timing.cells.iter().all(|c| c.cache_hit == hit), "{out}");
    }

    // The cached sweep artifact gates clean against the cold baseline.
    let out = run_ok(
        bin()
            .arg("gate")
            .arg(dir.join("out-warm").join("e2e-sweep.report.json"))
            .arg("--baseline")
            .arg(dir.join("out-cold").join("e2e-sweep.report.json")),
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("GATE PASS"));

    // The campaign's own --gate mode agrees, warm against cold.
    let out = run_ok(
        bin()
            .arg("campaign")
            .arg(dir.join("campaign.json"))
            .arg("--out-dir")
            .arg(dir.join("out-gated"))
            .arg("--quiet")
            .arg("--gate")
            .arg(dir.join("out-cold")),
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("GATE PASS"));

    // --no-cache computes everything and still reproduces the bytes.
    let out = run_ok(
        bin()
            .arg("campaign")
            .arg(dir.join("campaign.json"))
            .arg("--out-dir")
            .arg(dir.join("out-nocache"))
            .arg("--threads")
            .arg("2")
            .arg("--quiet")
            .arg("--no-cache"),
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("cache: disabled"));
    assert_eq!(cold, read_dir_bytes(&dir.join("out-nocache")));

    // An emptied cache fails --assert-warm with exit 2.
    std::fs::remove_dir_all(dir.join("cells")).unwrap();
    let out = bin()
        .arg("campaign")
        .arg(dir.join("campaign.json"))
        .arg("--out-dir")
        .arg(dir.join("out-cold2"))
        .arg("--quiet")
        .arg("--assert-warm")
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "--assert-warm must exit 2 on misses: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The resume contract: a campaign whose first attempt was cut short
/// mid-way (step-budget truncation killed the heavy cells; the cheap
/// cells landed in the cache) resumes to a final artifact byte-identical
/// to an uninterrupted run — in 1-thread and N-thread modes.
#[test]
fn truncated_campaign_resumes_to_byte_identical_artifacts() {
    let dir = tmp_dir("resume");
    // Two rates far apart: the 7 QPS cells process several times the
    // events of the 2 QPS cells, so a mid-point budget truncates exactly
    // the heavy coordinate.
    let full = sweep_json("resume-sweep", "2.0, 7.0", 20_000_000);
    std::fs::write(dir.join("sweep.json"), &full).unwrap();
    std::fs::write(
        dir.join("campaign.json"),
        campaign_json("resume-campaign", &[("Sweep", "sweep.json")]),
    )
    .unwrap();

    // Uninterrupted reference, cache untouched.
    run_ok(
        bin()
            .arg("campaign")
            .arg(dir.join("campaign.json"))
            .arg("--out-dir")
            .arg(dir.join("out-ref"))
            .arg("--quiet")
            .arg("--no-cache"),
    );
    let reference = read_dir_bytes(&dir.join("out-ref"));

    // Pick a step budget that splits the grid: above the cheapest cell,
    // below the dearest.
    let report_text =
        std::fs::read_to_string(dir.join("out-ref").join("resume-sweep.report.json")).unwrap();
    let report = FleetReport::from_json(&report_text).unwrap();
    let events: Vec<u64> = report.cells.iter().map(|c| c.metrics.events).collect();
    let (min, max) = (*events.iter().min().unwrap(), *events.iter().max().unwrap());
    assert!(
        max > min + 1000,
        "spread too small to split the grid: {events:?}"
    );
    let budget = min + (max - min) / 2;

    // One full interrupt-then-resume cycle per thread mode, each against
    // its own cache (the `--cache` override keeps the cycles independent).
    for (tag, threads) in [("t2", "2"), ("t1", "1")] {
        let cache = dir.join(format!("cells-{tag}"));

        // The interrupted attempt: same sweep under the tight budget.
        // Heavy cells truncate (and are NOT cached), cheap cells complete
        // and are. Not --quiet: the per-cell progress on stderr carries
        // the TRUNCATED marker this test pins down.
        std::fs::write(
            dir.join("sweep.json"),
            sweep_json("resume-sweep", "2.0, 7.0", budget),
        )
        .unwrap();
        let out = run_ok(
            bin()
                .arg("campaign")
                .arg(dir.join("campaign.json"))
                .arg("--out-dir")
                .arg(dir.join(format!("out-interrupted-{tag}")))
                .arg("--cache")
                .arg(&cache)
                .arg("--threads")
                .arg(threads),
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("TRUNCATED (not cached)"),
            "no cell was interrupted — budget split failed\nstderr: {stderr}"
        );
        assert!(
            !stdout.contains("4 stored"),
            "every cell was cached; nothing to resume: {stdout}"
        );
        assert!(
            !stdout.contains("0 stored"),
            "no cell was cached; nothing to resume from: {stdout}"
        );

        // Resume under the full budget: the truncated cells recompute,
        // the completed ones replay, and the artifacts come out
        // byte-identical to the uninterrupted reference.
        std::fs::write(dir.join("sweep.json"), &full).unwrap();
        let out = run_ok(
            bin()
                .arg("campaign")
                .arg(dir.join("campaign.json"))
                .arg("--out-dir")
                .arg(dir.join(format!("out-resume-{tag}")))
                .arg("--cache")
                .arg(&cache)
                .arg("--threads")
                .arg(threads)
                .arg("--quiet"),
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !stdout.contains(" 0 hits") && !stdout.contains(" 0 misses"),
            "resume should mix hits (completed cells) and misses (truncated cells): {stdout}"
        );
        assert_eq!(
            reference,
            read_dir_bytes(&dir.join(format!("out-resume-{tag}"))),
            "resumed artifacts diverged from the uninterrupted run at {threads} threads"
        );

        // And now this cache is fully warm: one more run is 100% hits.
        run_ok(
            bin()
                .arg("campaign")
                .arg(dir.join("campaign.json"))
                .arg("--out-dir")
                .arg(dir.join(format!("out-warm-{tag}")))
                .arg("--cache")
                .arg(&cache)
                .arg("--quiet")
                .arg("--assert-warm"),
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_stats_and_gc_bound_the_directory() {
    let dir = tmp_dir("cachecli");
    std::fs::write(
        dir.join("sweep.json"),
        sweep_json("gc-sweep", "3.0", 20_000_000),
    )
    .unwrap();
    std::fs::write(
        dir.join("campaign.json"),
        campaign_json("gc-campaign", &[("Sweep", "sweep.json")]),
    )
    .unwrap();
    run_ok(
        bin()
            .arg("campaign")
            .arg(dir.join("campaign.json"))
            .arg("--out-dir")
            .arg(dir.join("out"))
            .arg("--quiet"),
    );
    let cells = dir.join("cells");

    let out = run_ok(bin().arg("cache").arg("stats").arg(&cells));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("2 entries (2 sweep, 0 bench)"),
        "unexpected stats: {stdout}"
    );

    // A generous age bound removes nothing.
    let out = run_ok(
        bin()
            .arg("cache")
            .arg("gc")
            .arg(&cells)
            .arg("--max-age")
            .arg("7d"),
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("removed 0"));

    // Age zero sweeps everything.
    let out = run_ok(
        bin()
            .arg("cache")
            .arg("gc")
            .arg(&cells)
            .arg("--max-age")
            .arg("0s"),
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("removed 2"));
    let out = run_ok(bin().arg("cache").arg("stats").arg(&cells));
    assert!(String::from_utf8_lossy(&out.stdout).contains("0 entries"));

    // gc without --max-age is a usage error.
    let out = bin().arg("cache").arg("gc").arg(&cells).output().unwrap();
    assert_eq!(out.status.code(), Some(1));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fingerprint_and_campaign_init_support_ci_wiring() {
    // `fingerprint` prints the full cache salt CI keys actions/cache on.
    let out = run_ok(bin().arg("fingerprint"));
    let salt = String::from_utf8_lossy(&out.stdout).trim().to_string();
    assert!(salt.starts_with("engine-v"), "{salt}");
    assert!(salt.contains("report-v"), "{salt}");
    assert!(salt.contains("cache-v"), "{salt}");
    // Stable across invocations.
    let again = run_ok(bin().arg("fingerprint"));
    assert_eq!(salt, String::from_utf8_lossy(&again.stdout).trim());

    // `campaign init` writes a parseable template.
    let dir = tmp_dir("init");
    let path = dir.join("template-campaign.json");
    run_ok(bin().arg("campaign").arg("init").arg(&path));
    let text = std::fs::read_to_string(&path).unwrap();
    let spec = flexpipe_fleet::parse_campaign("c.json", &text).unwrap();
    assert_eq!(spec, flexpipe_fleet::CampaignSpec::template());
    let _ = std::fs::remove_dir_all(&dir);
}
