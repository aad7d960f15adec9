//! End-to-end exercise of the distributed campaign protocol through the
//! binary: `fleet worker` in shard and claim modes, `fleet campaign
//! assemble`, and the headline determinism contract — the assembled
//! artifact set is byte-identical whether one process ran the campaign,
//! three sharded workers split it, or three claiming workers raced over
//! it, at shuffled thread counts, on either storage backend.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_flexpipe-fleet"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("flexpipe-worker-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn sweep_json() -> String {
    r#"{
  "name": "w-sweep",
  "model": "Llama2_7B",
  "seed": 11,
  "horizon_secs": 8.0,
  "warmup_secs": 2.0,
  "slo_secs": 2.0,
  "slo_per_output_token_ms": 100.0,
  "background": "Idle",
  "lengths": {
    "prompt_median": 128.0, "prompt_sigma": 0.0, "prompt_range": [128, 128],
    "output_mean": 8.0, "output_range": [8, 8]
  },
  "max_events": 20000000,
  "cvs": [1.0],
  "rates": [2.0, 3.0],
  "clusters": [{"Custom": {"nodes": 6, "total_gpus": 8, "servers_per_rack": 3}}],
  "policies": [{"Paper": "FlexPipe"}, {"Static": {"stages": 2, "replicas": 1}}]
}
"#
    .to_string()
}

fn bench_json() -> String {
    r#"{
  "name": "w-bench",
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

/// A 5-cell campaign (4 sweep + 1 bench): enough cells that a 3-way
/// shard is never empty and claim races actually happen, small enough
/// for debug-build test time.
fn write_campaign(dir: &Path) -> PathBuf {
    std::fs::write(dir.join("sweep.json"), sweep_json()).unwrap();
    std::fs::write(dir.join("bench.json"), bench_json()).unwrap();
    let campaign = dir.join("campaign.json");
    std::fs::write(
        &campaign,
        "{\n  \"name\": \"w-campaign\",\n  \"cache_dir\": \"cells\",\n  \"entries\": [\n    \
         { \"kind\": \"Sweep\", \"path\": \"sweep.json\" },\n    \
         { \"kind\": \"Bench\", \"path\": \"bench.json\" }\n  ]\n}\n",
    )
    .unwrap();
    campaign
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

/// The deterministic artifact set of a campaign output directory —
/// everything except the wall-clock `campaign.timing.json` sidecar.
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

fn assemble(campaign: &Path, cache: &Path, out_dir: &Path) -> Output {
    run_ok(
        bin()
            .arg("campaign")
            .arg("assemble")
            .arg(campaign)
            .arg("--cache")
            .arg(cache)
            .arg("--out-dir")
            .arg(out_dir),
    )
}

/// The tentpole contract: 1 process vs 3 sharded workers vs 3
/// concurrent claiming workers (threads shuffled) vs 1 worker on the
/// append-log backend — four topologies, one byte-identical artifact
/// set.
#[test]
fn topologies_assemble_byte_identical_artifacts() {
    let dir = tmp_dir("topo");
    let campaign = write_campaign(&dir);

    // Reference topology: the single-process `fleet campaign` runner.
    run_ok(
        bin()
            .arg("campaign")
            .arg(&campaign)
            .arg("--out-dir")
            .arg(dir.join("out-1w"))
            .arg("--cache")
            .arg(dir.join("cells-1w"))
            .arg("--threads")
            .arg("2")
            .arg("--quiet"),
    );
    let reference = read_dir_bytes(&dir.join("out-1w"));
    assert_eq!(reference.len(), 3, "two reports + campaign.json");

    // Topology 2: three sharded workers, disjoint cells, shuffled thread
    // counts, then a cache-only assemble.
    let cache = dir.join("cells-shard");
    for (i, threads) in [(0, "2"), (1, "1"), (2, "3")] {
        let out = run_ok(
            bin()
                .arg("worker")
                .arg(&campaign)
                .arg("--cache")
                .arg(&cache)
                .arg("--shard")
                .arg(format!("{i}/3"))
                .arg("--threads")
                .arg(threads),
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("shard {i}/3")),
            "worker should announce its shard: {stderr}"
        );
    }
    assemble(&campaign, &cache, &dir.join("out-shard"));
    assert_eq!(
        reference,
        read_dir_bytes(&dir.join("out-shard")),
        "sharded topology diverged from the single-process run"
    );

    // Topology 3: three claiming workers racing concurrently over the
    // full cell list, shuffled thread counts.
    let cache = dir.join("cells-claim");
    let children: Vec<std::process::Child> = [("wa", "2"), ("wb", "1"), ("wc", "3")]
        .iter()
        .map(|(id, threads)| {
            bin()
                .arg("worker")
                .arg(&campaign)
                .arg("--cache")
                .arg(&cache)
                .arg("--worker-id")
                .arg(id)
                .arg("--threads")
                .arg(threads)
                .arg("--claim-ttl")
                .arg("30s")
                .spawn()
                .expect("spawn worker")
        })
        .collect();
    for child in children {
        let out = child.wait_with_output().expect("worker wait");
        assert!(out.status.success(), "a claiming worker failed");
    }
    assemble(&campaign, &cache, &dir.join("out-claim"));
    assert_eq!(
        reference,
        read_dir_bytes(&dir.join("out-claim")),
        "claiming topology diverged from the single-process run"
    );
    // The protocol cleaned up after itself: no claims left behind.
    let out = run_ok(bin().arg("cache").arg("stats").arg(&cache));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("claims: 0 live"),
        "drained campaign left claims: {stdout}"
    );
    assert!(stdout.contains("5 entries"), "{stdout}");

    // Topology 4: one worker on the append-log backend — the same cells
    // through a structurally different store, same bytes out.
    let cache = dir.join("cells-log");
    run_ok(
        bin()
            .arg("worker")
            .arg(&campaign)
            .arg("--cache")
            .arg(&cache)
            .arg("--store")
            .arg("log")
            .arg("--threads")
            .arg("2")
            .arg("--quiet"),
    );
    assert!(cache.join("cells.log").is_file(), "log backend selected");
    assemble(&campaign, &cache, &dir.join("out-log"));
    assert_eq!(
        reference,
        read_dir_bytes(&dir.join("out-log")),
        "append-log backend diverged from the single-process run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// `assemble` on an incomplete cache: exit 2, naming every missing key —
/// and nothing gets computed behind the operator's back.
#[test]
fn assemble_fails_loudly_on_missing_cells() {
    let dir = tmp_dir("missing");
    let campaign = write_campaign(&dir);
    let cache = dir.join("cells");

    // An empty cache is missing everything.
    let out = bin()
        .arg("campaign")
        .arg("assemble")
        .arg(&campaign)
        .arg("--cache")
        .arg(&cache)
        .arg("--out-dir")
        .arg(dir.join("out-none"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "incomplete cache must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("missing 5 of the campaign's cells"),
        "{stderr}"
    );
    assert!(
        !dir.join("out-none").exists(),
        "a failed assemble must write nothing"
    );

    // Fill the cache, then deliberately evict one entry.
    run_ok(
        bin()
            .arg("worker")
            .arg(&campaign)
            .arg("--cache")
            .arg(&cache)
            .arg("--threads")
            .arg("2")
            .arg("--quiet"),
    );
    let evicted: PathBuf = {
        let mut entries: Vec<PathBuf> = Vec::new();
        for shard in std::fs::read_dir(&cache).unwrap() {
            let shard = shard.unwrap().path();
            if shard.is_dir() {
                for f in std::fs::read_dir(&shard).unwrap() {
                    let f = f.unwrap().path();
                    if f.extension().map(|e| e == "json").unwrap_or(false) {
                        entries.push(f);
                    }
                }
            }
        }
        entries.sort();
        entries.remove(0)
    };
    let evicted_key = evicted.file_stem().unwrap().to_string_lossy().to_string();
    std::fs::remove_file(&evicted).unwrap();

    let out = bin()
        .arg("campaign")
        .arg("assemble")
        .arg(&campaign)
        .arg("--cache")
        .arg(&cache)
        .arg("--out-dir")
        .arg(dir.join("out-evicted"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("missing 1 of the campaign's cells"),
        "{stderr}"
    );
    assert!(
        stderr.contains(&evicted_key),
        "assemble must name the missing key {evicted_key}: {stderr}"
    );

    // One more worker pass heals the eviction; assemble then succeeds.
    run_ok(
        bin()
            .arg("worker")
            .arg(&campaign)
            .arg("--cache")
            .arg(&cache)
            .arg("--threads")
            .arg("1")
            .arg("--quiet"),
    );
    assemble(&campaign, &cache, &dir.join("out-healed"));
    assert_eq!(read_dir_bytes(&dir.join("out-healed")).len(), 3);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The resume contract for workers: a worker stopped mid-campaign leaves
/// a partial cache (and possibly a stale claim from its death); a
/// restarted worker replays the finished cells as hits, reaps the stale
/// claim, and completes the campaign without recomputing anything done.
#[test]
fn killed_worker_resumes_without_recomputing_cached_cells() {
    let dir = tmp_dir("resume");
    let campaign = write_campaign(&dir);
    let cache = dir.join("cells");

    // First worker "dies" after two cells (--max-cells caps compute).
    let out = run_ok(
        bin()
            .arg("worker")
            .arg(&campaign)
            .arg("--cache")
            .arg(&cache)
            .arg("--worker-id")
            .arg("doomed")
            .arg("--max-cells")
            .arg("2")
            .arg("--threads")
            .arg("1"),
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("worker doomed: 5 assigned, 2 computed"),
        "{stderr}"
    );
    assert!(stderr.contains("3 left to peers"), "{stderr}");

    // Simulate the abandoned claim of a crashed worker: plant a claim on
    // one not-yet-cached cell and backdate its heartbeat.
    let manifest_keys: Vec<String> = {
        // The campaign manifest (from a throwaway no-cache run) lists
        // every cell key — the same keys every worker derives.
        run_ok(
            bin()
                .arg("campaign")
                .arg(&campaign)
                .arg("--out-dir")
                .arg(dir.join("out-keys"))
                .arg("--no-cache")
                .arg("--quiet"),
        );
        let text = std::fs::read_to_string(dir.join("out-keys").join("campaign.json")).unwrap();
        text.split('"')
            .filter(|s| s.len() == 32 && s.chars().all(|c| c.is_ascii_hexdigit()))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(manifest_keys.len(), 5, "{manifest_keys:?}");
    let uncached = manifest_keys
        .iter()
        .find(|k| !cache.join(&k[0..2]).join(format!("{k}.json")).is_file())
        .expect("three cells are still uncached");
    let claim = cache
        .join(&uncached[0..2])
        .join(format!("{uncached}.claim"));
    std::fs::create_dir_all(claim.parent().unwrap()).unwrap();
    std::fs::write(&claim, "doomed\n").unwrap();
    std::fs::File::options()
        .write(true)
        .open(&claim)
        .unwrap()
        .set_modified(std::time::SystemTime::now() - std::time::Duration::from_secs(3600))
        .unwrap();

    // The replacement worker: finishes the campaign, reaping the dead
    // claim (1h old vs 2s TTL) instead of waiting on it.
    let out = run_ok(
        bin()
            .arg("worker")
            .arg(&campaign)
            .arg("--cache")
            .arg(&cache)
            .arg("--worker-id")
            .arg("heir")
            .arg("--claim-ttl")
            .arg("2s")
            .arg("--threads")
            .arg("2"),
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("worker heir: 5 assigned, 3 computed, 2 cache hits"),
        "the restarted worker must replay finished cells, not recompute: {stderr}"
    );
    assert!(!claim.exists(), "the stale claim must be gone");

    // The drained cache assembles to the same bytes as the reference.
    assemble(&campaign, &cache, &dir.join("out-resumed"));
    assert_eq!(
        read_dir_bytes(&dir.join("out-keys")),
        read_dir_bytes(&dir.join("out-resumed")),
        "resumed fleet diverged from the uninterrupted run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The committed CI campaign across all three topologies. Debug-build
/// expensive (40 real cells × 3 topologies) — `#[ignore]`d here; CI's
/// release-binary distributed smoke covers the same contract on every
/// push.
#[test]
#[ignore = "release-scale acceptance run; covered by the CI distributed smoke"]
fn committed_campaign_is_byte_identical_across_topologies() {
    let repo_specs = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let campaign = repo_specs.join("campaign-ci.json");
    assert!(campaign.is_file(), "committed campaign spec moved?");
    let dir = tmp_dir("acceptance");

    run_ok(
        bin()
            .arg("campaign")
            .arg(&campaign)
            .arg("--out-dir")
            .arg(dir.join("out-1w"))
            .arg("--cache")
            .arg(dir.join("cells-1w"))
            .arg("--quiet"),
    );
    let reference = read_dir_bytes(&dir.join("out-1w"));

    let cache = dir.join("cells-shard");
    for i in 0..3 {
        run_ok(
            bin()
                .arg("worker")
                .arg(&campaign)
                .arg("--cache")
                .arg(&cache)
                .arg("--shard")
                .arg(format!("{i}/3"))
                .arg("--quiet"),
        );
    }
    assemble(&campaign, &cache, &dir.join("out-shard"));
    assert_eq!(reference, read_dir_bytes(&dir.join("out-shard")));

    let cache = dir.join("cells-claim");
    let children: Vec<std::process::Child> = [("wa", "3"), ("wb", "2"), ("wc", "4")]
        .iter()
        .map(|(id, threads)| {
            bin()
                .arg("worker")
                .arg(&campaign)
                .arg("--cache")
                .arg(&cache)
                .arg("--worker-id")
                .arg(id)
                .arg("--threads")
                .arg(threads)
                .arg("--quiet")
                .spawn()
                .unwrap()
        })
        .collect();
    for child in children {
        assert!(child.wait_with_output().unwrap().status.success());
    }
    assemble(&campaign, &cache, &dir.join("out-claim"));
    assert_eq!(reference, read_dir_bytes(&dir.join("out-claim")));

    let _ = std::fs::remove_dir_all(&dir);
}
