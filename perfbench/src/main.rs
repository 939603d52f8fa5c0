//! `perfbench`: one repeatable, layered benchmark of the self-stabilizing
//! MIS engine and the graph service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sparse-two-state --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `sparse-two-state`, `dense-three-color`, `service-durable`
//! (see `perfbench/README.md`). With `--trace 0` the last stdout line
//! carries the end-to-end metrics; with `--trace 1` it carries the
//! per-layer metrics of a traced run, and the spans are written to
//! `.bench_out/spans-<workload>-<seed>.ndjson`. The line before it is the
//! run's metadata. The exit status is non-zero when any output fails its
//! correctness check.

mod engine;
mod meta;
mod report;
mod schedule;
mod seeds;
mod service;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{Values, END_TO_END};
use seeds::Seeds;
use trace::Tracer;

/// Offered rates of `service-durable` in jobs per second, measured on a
/// shared 2-core Xeon host. A few catalog jobs run ~200 ms while most take
/// ~0.2 ms, and the poll traffic grows with the backlog, so the service
/// saturates abruptly: at 130/s the backlog stayed under 25 jobs, while at
/// 180/s it reached 96 in a good run and overflowed the 256-job queue
/// (429s) in three runs of four when the host was busier. 40/s and 100/s
/// keep the higher rate well below that knee, so that no run sheds load.
const LOW_RATE: f64 = 40.0;
const HIGH_RATE: f64 = 100.0;

const USAGE: &str =
    "usage: perfbench --workload <sparse-two-state|dense-three-color|service-durable> \
--seed <u64> --seconds <n> --trace <0|1>";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = meta::Host::probe();
    let seeds = Seeds(args.seed);
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let mut values = Values::default();

    let (attempted, failed, threads, failures) = match args.workload.as_str() {
        "sparse-two-state" | "dense-three-color" => {
            let workload = if args.workload == "sparse-two-state" {
                engine::sparse_two_state(host.nproc)
            } else {
                engine::dense_three_color(host.nproc)
            };
            let run = workload.run(seeds, args.seconds, host.nproc, &mut tracer, &mut values);
            (
                run.attempted,
                run.failed,
                format!(
                    "{:?} x {} trials at once",
                    workload.execution, workload.lanes
                ),
                format!("{{\"trials\": {}}}", run.failed),
            )
        }
        "service-durable" => {
            let workload = service::ServiceWorkload {
                low_rate: LOW_RATE,
                high_rate: HIGH_RATE,
            };
            match workload.run(seeds, args.seconds, host.nproc, &mut tracer, &mut values) {
                Ok(run) => (
                    run.attempted,
                    run.failed,
                    format!(
                        "service workers {n}, 1 submitting + 1 polling connection, \
                         offered {LOW_RATE}/s and {HIGH_RATE}/s",
                        n = host.nproc
                    ),
                    run.failures,
                ),
                Err(e) => {
                    eprintln!("perfbench: service-durable: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(rss) = meta::peak_rss_mb() {
        values.set("peak_rss_mb", rss);
    }

    let names: Vec<(String, &'static str)> = if args.trace {
        report::per_layer_names()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let metrics = values.select(&names);

    if args.trace {
        let path = PathBuf::from(".bench_out")
            .join(format!("spans-{}-{}.ndjson", args.workload, args.seed));
        if let Err(e) = tracer.write_ndjson(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    let correct = failed == 0;
    println!(
        "meta {{\"command\": {:?}, \"workload\": {:?}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {}, \"threads\": {:?}, \"failures\": {}, \"samples\": {}}}",
        std::env::args().collect::<Vec<_>>().join(" "),
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        host.to_json(),
        threads,
        failures,
        report::sample_summary(&metrics)
    );
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {failed} of {attempted} operations failed their correctness check");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let args = parse_args(&argv(
            "--workload dense-three-color --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: "dense-three-color".to_string(),
                seed: 7,
                seconds: 12,
                trace: true
            }
        );
        assert!(parse_args(&argv("--seed 7")).is_err());
        assert!(parse_args(&argv("--workload x --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seconds")).is_err());
    }
}
