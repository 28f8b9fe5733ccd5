//! The benchmark of the LearnedWMP prediction path.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Runs one workload against the public API for `--seconds` of measured
//! time, checks its outputs, and prints as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The line
//! before it carries the details: host facts, operations per phase, timing
//! summaries with sample counts, and why the workload exists. With `--out`,
//! the details and (traced runs) every span are also written under `<dir>`.

mod common;
mod report;
mod retrain;
mod sched;
mod serve;
mod sql;
mod stages;
mod trace;

use common::{Outcome, RunConfig};
use report::{host_facts, Json, Tally};

type Runner = fn(&RunConfig) -> Outcome;

/// Each workload, why it exists, and its runner. `sql_tpch` and
/// `retrain_tpcc` run on demand but are not in `BENCHMARK.json`: their
/// timings followed the load other tenants put on shared cores too closely
/// to gate on (see the README). Their layers are probed in every traced run
/// all the same.
const WORKLOADS: [(&str, &str, Runner); 4] = [
    ("serve_tpcds", serve::WHY, serve::run),
    ("sql_tpch", sql::WHY, sql::run),
    ("sched_tpch", sched::WHY, sched::run),
    ("retrain_tpcc", retrain::WHY, retrain::run),
];

/// End-to-end metrics every `--trace 0` run reports, in order.
const END_TO_END: [&str; 8] = [
    "qps",
    "decision_p50_us",
    "decision_p99_us",
    "mem_mape",
    "sched_cost",
    "model_bytes",
    "peak_rss_mb",
    "setup_s",
];

/// Per-layer metrics every `--trace 1` run reports, and the end-to-end
/// metric each should move, on which workload.
const PER_LAYER: [(&str, &str); 29] = [
    ("sql.parse_ns", "qps on sql_tpch"),
    ("sql.lower_ns", "qps on sql_tpch"),
    ("plan.plan_ns", "qps on sql_tpch"),
    ("plan.featurize_ns", "qps on sql_tpch"),
    ("sim.price_ns", "qps on sql_tpch"),
    ("serve.submit_sql_ns", "qps on sql_tpch"),
    ("core.assign_ns", "qps and decision_p50_us on serve_tpcds; qps on sched_tpch"),
    ("core.histogram_ns", "decision_p50_us on serve_tpcds"),
    ("core.snapshot_ns", "decision_p50_us on serve_tpcds"),
    ("mlkit.regress_ns", "decision_p50_us and qps on serve_tpcds; no change on sched_tpch"),
    ("serve.enqueue_ns", "qps on serve_tpcds"),
    ("serve.enqueue_p99_ns", "qps on serve_tpcds (lock waiting between the two submitters)"),
    ("serve.close_ns", "decision_p50_us on serve_tpcds"),
    ("serve.predict_now_ns", "decision_p50_us on serve_tpcds; qps on sched_tpch"),
    ("serve.window_overhead_ns", "decision_p50_us on serve_tpcds"),
    ("serve.observe_ns", "qps and decision_p99_us on retrain_tpcc"),
    ("serve.install_ns", "qps and decision_p99_us on retrain_tpcc"),
    ("core.fit_ms", "qps and decision_p99_us on retrain_tpcc; setup_s on every workload"),
    ("sched.submit_ns", "qps on sched_tpch"),
    ("sched.drain_ms", "qps on sched_tpch"),
    ("sched.deferred_ratio", "sched_cost on sched_tpch"),
    ("sched.sla_violations", "sched_cost on sched_tpch"),
    ("sched.overflow_events", "sched_cost on sched_tpch"),
    ("sched.rejected", "sched_cost on sched_tpch"),
    ("serve.windows", "count of windows scored in the untraced part"),
    ("serve.swaps", "count of model swaps in the untraced part"),
    ("sql.rejected", "count of SQL lines rejected by the probe"),
    ("gap.unexplained_ns", "end-to-end ns/query minus the workload's stage costs per query"),
    ("trace.overhead_pct", "cost of recording spans on the workload's own pipeline"),
];

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

struct Args {
    workload: String,
    config: RunConfig,
    out: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = Some(std::path::PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        config: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
        out,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(&(name, why, run)) = WORKLOADS.iter().find(|(name, _, _)| *name == args.workload)
    else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        eprintln!("unknown workload {:?}; one of {}\n{USAGE}", args.workload, names.join(", "));
        std::process::exit(2);
    };
    let cfg = args.config;
    let outcome = run(&cfg);

    let expected: Vec<&str> =
        if cfg.trace { PER_LAYER.iter().map(|m| m.0).collect() } else { END_TO_END.to_vec() };
    let reported: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
    assert_eq!(reported, expected, "the runner reports exactly the declared metrics");

    let mut total = Tally::default();
    for (_, tally) in &outcome.phases {
        total.add(*tally);
    }
    let all_finite = outcome.metrics.iter().all(|m| m.1.is_finite());
    let correct = total.failed == 0 && total.attempted > 0 && all_finite;

    let mut details = vec![
        ("workload".to_string(), Json::str(name)),
        ("why".to_string(), Json::str(why)),
        ("host".to_string(), host_facts(cfg.seed)),
        ("seconds".to_string(), Json::Num(cfg.seconds)),
        ("trace".to_string(), Json::Bool(cfg.trace)),
        (
            "phases".to_string(),
            Json::obj(outcome.phases.iter().map(|(p, t)| (p.to_string(), t.to_json()))),
        ),
    ];
    details.push((
        "samples".to_string(),
        Json::obj(outcome.metrics.iter().map(|&(m, _, _, n)| (m, Json::Num(n as f64)))),
    ));
    details.extend(outcome.details.iter().cloned());
    if cfg.trace {
        details.push((
            "moves".to_string(),
            Json::obj(PER_LAYER.iter().map(|&(m, target)| (m, Json::str(target)))),
        ));
        if let Some(spans) = &outcome.spans {
            details.push(("spans".to_string(), Json::Num(spans.len() as f64)));
        }
    }
    let details = Json::obj([("perfbench", Json::Obj(details))]);
    println!("{}", details.render());

    if let Some(dir) = &args.out {
        let stem = format!("{name}-seed{}-trace{}", cfg.seed, u8::from(cfg.trace));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| {
                std::fs::write(dir.join(format!("{stem}.json")), details.render() + "\n")
            })
            .and_then(|()| match &outcome.spans {
                Some(spans) => spans.write_tsv(&dir.join(format!("{stem}.spans.tsv"))),
                None => Ok(()),
            });
        if let Err(e) = written {
            eprintln!("writing results under {}: {e}", dir.display());
            std::process::exit(1);
        }
    }

    let metrics = Json::obj(outcome.metrics.iter().map(|&(m, value, unit, _)| {
        (m, Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]))
    }));
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(total.attempted as f64)),
        ("failed", Json::Num(total.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
}
