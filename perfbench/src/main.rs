//! Layer-ladder benchmark of the learned spatial index stack.
//!
//! ```text
//! perfbench --workload <local-rsmi|serve-rw|route-read> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints notes, then one JSON line: `correct`, `attempted`, `failed` and
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`).  A workload that fails to start, errs, stalls past the
//! deadline or leaves a thread running exits non-zero with a message
//! naming it, and prints no result.

mod measure;
mod oracle;
mod report;
mod rung;
mod workloads;

use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Wall-clock budget of one run, set-up and checks included.
const RUN_DEADLINE: Duration = Duration::from_secs(160);

fn parse_args() -> Result<workloads::Params, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {})",
            workloads::WORKLOADS.join(", ")
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(workloads::Params {
        workload,
        seed,
        seconds,
        trace,
        deadline: Instant::now() + RUN_DEADLINE - Duration::from_secs(10),
    })
}

fn main() {
    let params = match parse_args() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let name = params.workload.clone();
    let trace = params.trace;
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let mut report = report::Report::default();
        let result = workloads::run(&params, &mut report).map(|()| report);
        let _ = tx.send(result);
    });
    let result = match rx.recv_timeout(RUN_DEADLINE) {
        Ok(r) => r,
        Err(_) => {
            // The stalled workload's threads cannot be joined; exiting
            // ends them with the process.
            eprintln!(
                "perfbench: workload '{name}' did not finish within {}s",
                RUN_DEADLINE.as_secs()
            );
            std::process::exit(3);
        }
    };
    if worker.join().is_err() {
        eprintln!("perfbench: workload '{name}' panicked");
        std::process::exit(4);
    }
    match result.and_then(|r| r.json(trace).map(|line| (r, line))) {
        Ok((report, line)) => {
            for note in &report.notes {
                println!("# {name}: {note}");
            }
            for problem in &report.problems {
                println!("# {name}: PROBLEM: {problem}");
            }
            println!("{line}");
        }
        Err(e) => {
            eprintln!("perfbench: workload '{name}' failed: {e}");
            std::process::exit(1);
        }
    }
}
