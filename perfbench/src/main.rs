//! The DPI service benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload, checks every output against the independent
//! reference in `reference.rs`, and prints one JSON object as the last
//! line of standard output: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! A disagreement with the reference is printed to standard error and
//! the command exits with code 1.

mod bulk;
mod config;
mod inputs;
mod l7;
mod layers;
mod measure;
mod reference;
mod service_chain;
mod spans;
mod workload;

use workload::Outcome;

const WORKLOADS: &[&str] = &[
    "service-chain",
    "bulk-small-packets",
    "bulk-large-packets",
    "l7-sessions",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(0.1),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn print_result(correct: bool, o: &Outcome) {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "service-chain" => {
            service_chain::ServiceChain::new(args.seed).run(args.seconds, args.trace)
        }
        "bulk-small-packets" => bulk::Bulk::small(args.seed).run(args.seconds, args.trace),
        "bulk-large-packets" => bulk::Bulk::large(args.seed).run(args.seconds, args.trace),
        _ => l7::L7Sessions::new(args.seed).run(args.seconds, args.trace),
    };
    match result {
        Ok(o) => {
            if o.metrics.iter().any(|m| !m.value.is_finite()) {
                eprintln!("perfbench: a metric is not a finite number");
                std::process::exit(1);
            }
            print_result(true, &o)
        }
        Err(why) => {
            eprintln!("perfbench: output disagrees with the reference: {why}");
            std::process::exit(1);
        }
    }
}
