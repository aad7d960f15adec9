//! `perfbench <workload> --seed N [--traced]`: runs one repetition of
//! one workload in this process and prints its result as one JSON line.
//! `run.py` drives repetitions in fresh processes and aggregates them.

use std::process::ExitCode;

use flexpipe_perfbench::output::Rep;
use flexpipe_perfbench::{host, live, offline, per_layer_names, END_TO_END, WORKLOADS};

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench <{}> --seed N [--traced]",
        WORKLOADS.join("|")
    );
    ExitCode::from(1)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(workload) = args.first().filter(|w| WORKLOADS.contains(&w.as_str())) else {
        return usage();
    };
    let mut seed = None;
    let mut traced = false;
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--seed" => match rest.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = Some(s),
                None => return usage(),
            },
            "--traced" => traced = true,
            _ => return usage(),
        }
    }
    let Some(seed) = seed else {
        return usage();
    };

    // The host probe brackets the repetition; it touches no heap, so it
    // cannot disturb the peak resident set or the allocator state.
    let probe_start = host::probe();
    let mut rep = Rep::default();
    // Set-ups per repetition (their median is `setup_s`). fleet-1k's takes
    // seconds, so there the repetitions' own processes supply the several
    // set-ups of a run.
    match (workload.as_str(), traced) {
        ("paper-cv8", false) => drop(offline::run_untraced(
            &offline::paper_cv8(seed),
            5,
            &mut rep,
        )),
        ("paper-cv8", true) => offline::run_traced(&offline::paper_cv8(seed), 5, &mut rep),
        ("fleet-1k", false) => drop(offline::run_untraced(&offline::fleet_1k(seed), 1, &mut rep)),
        ("fleet-1k", true) => offline::run_traced(&offline::fleet_1k(seed), 1, &mut rep),
        (_, false) => drop(live::run_untraced(&live::live_paced(seed), 5, &mut rep)),
        (_, true) => live::run_traced(&live::live_paced(seed), 5, &mut rep),
    }
    rep.put("host.probe_s", (probe_start + host::probe()) / 2.0);
    let mut names: Vec<String> = END_TO_END.iter().map(|s| s.to_string()).collect();
    if traced {
        names.extend(per_layer_names());
    }
    rep.fill_missing(&names);
    rep.settle();
    println!("{}", rep.to_json());
    if rep.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
