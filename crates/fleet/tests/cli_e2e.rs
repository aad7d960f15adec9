//! End-to-end exercise of the `flexpipe-fleet` binary: init → run →
//! compare → gate, including the non-zero exit on an injected regression.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_flexpipe-fleet"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flexpipe-fleet-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A fast spec for CLI runs (smaller than the template's 24 cells).
fn small_spec_json() -> String {
    r#"{
  "name": "cli-e2e",
  "model": "Llama2_7B",
  "seed": 11,
  "horizon_secs": 12.0,
  "warmup_secs": 3.0,
  "slo_secs": 2.0,
  "slo_per_output_token_ms": 100.0,
  "background": "Idle",
  "lengths": {
    "prompt_median": 128.0,
    "prompt_sigma": 0.0,
    "prompt_range": [128, 128],
    "output_mean": 8.0,
    "output_range": [8, 8]
  },
  "max_events": 20000000,
  "cvs": [1.0, 4.0],
  "rates": [3.0],
  "clusters": [{"Custom": {"nodes": 6, "total_gpus": 8, "servers_per_rack": 3}}],
  "policies": [{"Paper": "FlexPipe"}, {"Static": {"stages": 2, "replicas": 1}}]
}
"#
    .to_string()
}

#[test]
fn init_run_compare_gate_pipeline() {
    let dir = tmp_dir("pipeline");
    let spec_path = dir.join("sweep.json");
    let report_path = dir.join("report.json");

    // init writes a parseable template.
    let out = bin()
        .arg("init")
        .arg(dir.join("template.json"))
        .output()
        .expect("run init");
    assert!(out.status.success(), "init failed: {out:?}");
    let template = std::fs::read_to_string(dir.join("template.json")).unwrap();
    assert!(template.contains("\"cvs\""));

    // run executes a small sweep and writes the artifact.
    std::fs::write(&spec_path, small_spec_json()).unwrap();
    let out = bin()
        .arg("run")
        .arg(&spec_path)
        .arg("--out")
        .arg(&report_path)
        .arg("--quiet")
        .output()
        .expect("run sweep");
    assert!(
        out.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("per-policy summary"),
        "missing table: {stdout}"
    );
    assert!(stdout.contains("FlexPipe"));

    // compare renders the artifact.
    let out = bin().arg("compare").arg(&report_path).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("per-cell results"));

    // gate against itself passes with exit 0.
    let out = bin()
        .arg("gate")
        .arg(&report_path)
        .arg("--baseline")
        .arg(&report_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "self-gate failed");
    assert!(String::from_utf8_lossy(&out.stdout).contains("GATE PASS"));

    // Injecting a regression into the candidate makes gate exit non-zero.
    let degraded_path = dir.join("degraded.json");
    let report = std::fs::read_to_string(&report_path).unwrap();
    let mut parsed = flexpipe_fleet::FleetReport::from_json(&report).unwrap();
    for cell in &mut parsed.cells {
        cell.metrics.slo_attainment *= 0.5;
        cell.metrics.goodput_per_sec *= 0.5;
    }
    std::fs::write(&degraded_path, parsed.to_json()).unwrap();
    let out = bin()
        .arg("gate")
        .arg(&degraded_path)
        .arg("--baseline")
        .arg(&report_path)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "gate must exit 2 on regression: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("GATE FAIL"));

    let _ = std::fs::remove_dir_all(&dir);
}

/// The gate covers recovery metrics: a candidate whose mean
/// time-to-recover worsened against the baseline exits 2.
#[test]
fn gate_catches_recovery_regressions_from_the_cli() {
    let dir = tmp_dir("recovery-gate");
    let spec_path = dir.join("sweep.json");
    let report_path = dir.join("report.json");
    std::fs::write(&spec_path, small_spec_json()).unwrap();
    let out = bin()
        .arg("run")
        .arg(&spec_path)
        .arg("--out")
        .arg(&report_path)
        .arg("--quiet")
        .output()
        .expect("run sweep");
    assert!(out.status.success());

    // Stamp disruption outcomes onto the report to form a chaos baseline,
    // then worsen the candidate's recovery metrics.
    let report = std::fs::read_to_string(&report_path).unwrap();
    let mut baseline = flexpipe_fleet::FleetReport::from_json(&report).unwrap();
    for cell in &mut baseline.cells {
        cell.metrics.revocations = 2;
        cell.metrics.mean_ttr_secs = 8.0;
        cell.metrics.requests_replayed = 3;
    }
    let mut candidate = baseline.clone();
    for cell in &mut candidate.cells {
        cell.metrics.mean_ttr_secs = 20.0;
        cell.metrics.requests_replayed = 9;
    }
    let baseline_path = dir.join("chaos-baseline.json");
    let candidate_path = dir.join("chaos-candidate.json");
    std::fs::write(&baseline_path, baseline.to_json()).unwrap();
    std::fs::write(&candidate_path, candidate.to_json()).unwrap();

    let out = bin()
        .arg("gate")
        .arg(&candidate_path)
        .arg("--baseline")
        .arg(&baseline_path)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "worsened recovery metrics must exit 2: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("mean_ttr_secs"), "{stdout}");
    assert!(stdout.contains("requests_replayed"), "{stdout}");

    // The unmodified chaos baseline still self-gates clean.
    let out = bin()
        .arg("gate")
        .arg(&baseline_path)
        .arg("--baseline")
        .arg(&baseline_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "chaos self-gate must pass");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_gate_is_a_one_shot_ci_mode() {
    let dir = tmp_dir("run-gate");
    let spec_path = dir.join("sweep.json");
    let baseline_path = dir.join("baseline.json");
    std::fs::write(&spec_path, small_spec_json()).unwrap();

    // Produce the baseline artifact.
    let out = bin()
        .arg("run")
        .arg(&spec_path)
        .arg("--out")
        .arg(&baseline_path)
        .arg("--quiet")
        .output()
        .expect("baseline run");
    assert!(out.status.success());

    // run --gate against the (identical) baseline passes with exit 0.
    let out = bin()
        .arg("run")
        .arg(&spec_path)
        .arg("--out")
        .arg(dir.join("fresh.json"))
        .arg("--quiet")
        .arg("--gate")
        .arg(&baseline_path)
        .output()
        .expect("run --gate");
    assert!(
        out.status.success(),
        "run --gate failed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("GATE PASS"));

    // A doctored (better-than-achievable) baseline makes the same run
    // exit 2, matching the `gate` subcommand's contract.
    let report = std::fs::read_to_string(&baseline_path).unwrap();
    let mut parsed = flexpipe_fleet::FleetReport::from_json(&report).unwrap();
    for cell in &mut parsed.cells {
        cell.metrics.goodput_per_sec *= 10.0;
    }
    let doctored_path = dir.join("doctored.json");
    std::fs::write(&doctored_path, parsed.to_json()).unwrap();
    let out = bin()
        .arg("run")
        .arg(&spec_path)
        .arg("--out")
        .arg(dir.join("fresh2.json"))
        .arg("--quiet")
        .arg("--gate")
        .arg(&doctored_path)
        .output()
        .expect("run --gate vs doctored");
    assert_eq!(
        out.status.code(),
        Some(2),
        "run --gate must exit 2 on regression: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rerunning_the_cli_reproduces_the_artifact_byte_identically() {
    let dir = tmp_dir("rerun");
    let spec_path = dir.join("sweep.json");
    std::fs::write(&spec_path, small_spec_json()).unwrap();

    let mut artifacts = Vec::new();
    for (i, threads) in ["4", "1"].iter().enumerate() {
        let report_path = dir.join(format!("report-{i}.json"));
        let out = bin()
            .arg("run")
            .arg(&spec_path)
            .arg("--out")
            .arg(&report_path)
            .arg("--threads")
            .arg(threads)
            .arg("--quiet")
            .output()
            .expect("run sweep");
        assert!(
            out.status.success(),
            "run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        artifacts.push(std::fs::read(&report_path).unwrap());
    }
    assert_eq!(
        artifacts[0], artifacts[1],
        "CLI reruns must reproduce the report byte-for-byte"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_one() {
    let out = bin().output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let out = bin().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let out = bin()
        .arg("run")
        .arg("/nonexistent/spec.json")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let out = bin().arg("gate").arg("x.json").output().unwrap();
    assert_eq!(out.status.code(), Some(1));

    // Retired flags (the wall-clock gates, the engine-mode switch) and
    // any other flag a verb does not take are usage errors that name the
    // flag, not silent no-ops or spec paths.
    let dir = tmp_dir("usage");
    let bench_spec = dir.join("bench.json");
    let sweep_spec = dir.join("sweep.json");
    let campaign_spec = dir.join("campaign.json");
    for (init, path) in [
        (&["bench", "init"][..], &bench_spec),
        (&["init"], &sweep_spec),
        (&["campaign", "init"], &campaign_spec),
    ] {
        let out = bin().args(init).arg(path).output().unwrap();
        assert!(out.status.success(), "{init:?} failed: {out:?}");
    }
    let arg = |p: &PathBuf| p.to_str().expect("temp paths are UTF-8").to_owned();
    let (bench_arg, sweep_arg, campaign_arg) =
        (arg(&bench_spec), arg(&sweep_spec), arg(&campaign_spec));
    let unknown: [(&[&str], &str); 7] = [
        (&["trace", "profile", "--min-speedup", "2"], "--min-speedup"),
        (&["bench", "--live"], "--live"),
        (&["bench", &bench_arg, "--hot-paths"], "--hot-paths"),
        (&["run", &sweep_arg, "--admission", "naive"], "--admission"),
        (
            &["campaign", &campaign_arg, "--admission", "naive"],
            "--admission",
        ),
        (
            &["worker", &campaign_arg, "--admission", "naive"],
            "--admission",
        ),
        (
            &["trace", "record", &sweep_arg, "--admission", "naive"],
            "--admission",
        ),
    ];
    for (args, flag) in unknown {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(&format!("unknown flag {flag} for ")),
            "{args:?}: {out:?}"
        );
    }

    // Specs are JSON only: a TOML spec is refused by the JSON parser.
    let toml_spec = dir.join("sweep.toml");
    std::fs::write(&toml_spec, "name = \"cli-e2e\"\nseed = 11\n").unwrap();
    let out = bin().arg("run").arg(&toml_spec).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unexpected character `n` at byte 0"),
        "{out:?}"
    );

    // Malformed sweep and bench specs are refused before any cell runs:
    // a custom cluster with fewer GPUs than servers (which would panic in
    // every cell) and an infinite horizon (which would never finish).
    let sweep = std::fs::read_to_string(&sweep_spec).unwrap();
    let bench = std::fs::read_to_string(&bench_spec).unwrap();
    let custom = r#"{ "Custom": { "nodes": 8, "total_gpus": 4, "servers_per_rack": 4 } }"#;
    let malformed = [
        (
            "run",
            sweep.replace("\"PaperTestbed\"", custom),
            "custom-8n-4g-4r",
        ),
        (
            "run",
            sweep.replace("\"horizon_secs\": 120.0", "\"horizon_secs\": 1e999"),
            "horizon_secs",
        ),
        (
            "bench",
            bench.replace("\"PaperTestbed\"", custom),
            "custom-8n-4g-4r",
        ),
        (
            "bench",
            bench.replace("\"horizon_secs\": 45.0", "\"horizon_secs\": 1e999"),
            "horizon_secs",
        ),
    ];
    for (verb, text, reason) in malformed {
        let path = dir.join("malformed.json");
        std::fs::write(&path, &text).unwrap();
        let out = bin()
            .arg(verb)
            .arg(&path)
            .arg("--out")
            .arg(dir.join("never-written.json"))
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{verb} {reason}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(reason),
            "{verb} {reason}: {out:?}"
        );
    }

    // `trace profile` refuses an empty fleet and one whose cluster size
    // would overflow.
    for instances in ["0", "4294967295"] {
        let out = bin()
            .args(["trace", "profile", "--instances", instances])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(1),
            "--instances {instances}: {out:?}"
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains(instances));
    }

    // A time scale so small that the run's span cannot be paced in a
    // `Duration` is an input error, not a panic.
    let serve_spec = dir.join("serve.json");
    let out = bin()
        .args(["serve", "init"])
        .arg(&serve_spec)
        .output()
        .unwrap();
    assert!(out.status.success(), "serve init failed: {out:?}");
    let out = bin()
        .arg("serve")
        .arg(&serve_spec)
        .args(["--time-scale", "1e-300", "--out-dir"])
        .arg(dir.join("never-written"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("time scale"));
    let _ = std::fs::remove_dir_all(&dir);
}
