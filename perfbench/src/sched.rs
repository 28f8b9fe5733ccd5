//! `sched_tpch`: a TPC-H log replayed by `wmp_sched::replay`, deciding each
//! window through `Engine::predict_now` with LearnedWMP-Ridge (k = 22), on
//! the cluster of the committed `scheduler_replay` bench.

use std::time::Instant;

use learnedwmp_core::{LearnedWmp, ModelKind};
use wmp_plan::ResourceVector;
use wmp_sched::{replay, DemandSource, ScheduleReport};
use wmp_serve::{Engine, PredictorHandle, WindowPolicy};
use wmp_workloads::{QueryLog, QueryRecord};

use crate::common::{
    repeated_setup, same_bits, train, window_truth, Mape, Outcome, Rates, RunConfig, SchedSetup,
    ARRIVAL_PATTERNS, SETUP_REPEATS, WINDOW,
};
use crate::report::{peak_rss_mb, BestOf, Json, Tally};
use crate::stages::{self, EndToEnd, Path, ProbeInputs};

pub const WHY: &str = "The only workload that runs wmp_sched, with about a third of its windows \
     deferred. Ridge costs tens of ns per window, so a tree-regressor change should leave it flat \
     while an assignment change should show.";

const K: usize = 22;
const LOG: usize = 30_000;
const TRAIN: usize = 15_000;
/// Queries per timed replay. The timed replays run the log in parts of a
/// few milliseconds each, short enough that the fastest of a part's
/// repeats is one a neighbour's load left alone; a whole-log replay takes
/// about 20 ms and rarely escapes it.
const PART: usize = 3_000;
/// Arrival patterns the timed replays cycle through.
const TIMED_PATTERNS: u64 = 8;

/// A part of the log, replayed on its own.
struct Part {
    log: QueryLog,
    /// Index of its first window in the whole log.
    first_window: usize,
    /// Queries in its windows the cluster can ever hold.
    placeable_queries: u64,
}

struct Setup {
    log: QueryLog,
    model: LearnedWmp,
    engine: Engine,
    sched: SchedSetup,
    /// `LearnedWmp::predict_resources` per replay window.
    predictions: Vec<ResourceVector>,
    /// Queries in windows the cluster can ever hold.
    placeable_queries: u64,
    parts: Vec<Part>,
    mape: Mape,
}

fn setup(seed: u64) -> Setup {
    let log = wmp_workloads::tpch::generate(LOG, seed).expect("TPC-H generation");
    let train_set: Vec<&QueryRecord> = log.records[..TRAIN].iter().collect();
    let model = train(ModelKind::Ridge, K, &train_set, &log.catalog);
    let engine = Engine::new(
        PredictorHandle::new(model.codec_clone().expect("codec round trip")),
        WindowPolicy::Count(WINDOW),
    );
    let sched = SchedSetup::reference();
    let mut predictions = Vec::with_capacity(LOG / WINDOW);
    let mut placeable = Vec::with_capacity(LOG / WINDOW);
    let mut mape = Mape::default();
    for chunk in log.replay(WINDOW) {
        let refs: Vec<&QueryRecord> = chunk.iter().collect();
        let predicted = model.predict_resources(&refs).expect("reference prediction");
        placeable.push(if sched.placeable(predicted) { chunk.len() as u64 } else { 0 });
        mape.add(predicted.memory_mb, window_truth(&refs).memory_mb);
        predictions.push(predicted);
    }
    let parts = log
        .records
        .chunks(PART)
        .enumerate()
        .map(|(p, records)| {
            let first_window = p * PART / WINDOW;
            let windows = records.len().div_ceil(WINDOW);
            Part {
                log: QueryLog {
                    benchmark: log.benchmark.clone(),
                    catalog: log.catalog.clone(),
                    records: records.to_vec(),
                },
                first_window,
                placeable_queries: placeable[first_window..first_window + windows].iter().sum(),
            }
        })
        .collect();
    let placeable_queries = placeable.iter().sum();
    Setup { log, model, engine, sched, predictions, placeable_queries, parts, mape }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let (s, setup_s) =
        if cfg.trace { (setup(cfg.seed), 0.0) } else { repeated_setup(|| setup(cfg.seed)) };
    let seconds = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let mut tally = Tally::default();
    let m = measure(&s, seconds, &mut tally);
    out.phase("replay", tally);
    // Queries placed per second of the parts' fastest replays.
    let qps = (TIMED_PATTERNS * s.placeable_queries) as f64 / (m.replay_best.total_ns() / 1e9);

    if cfg.trace {
        let lines: Vec<String> = s
            .log
            .records
            .iter()
            .map(|r| wmp_sql::render_sql_dialect(&r.spec, &wmp_sql::Postgres))
            .collect();
        let inputs = ProbeInputs {
            catalog: &s.log.catalog,
            lines: &lines,
            records: &s.log.records,
            model: &s.model,
            handle: s.engine.handle(),
            sched: &s.sched,
            submitters: 1,
            kind: ModelKind::Ridge,
            k: K,
        };
        let stats = s.engine.stats();
        let e2e = EndToEnd {
            qps,
            submitters: 1,
            windows: stats.windows,
            swaps: stats.swaps,
            retrains_per_query: 0.0,
        };
        let mut probe_tally = Tally::default();
        let (metrics, spans) = stages::probe(&inputs, Path::Sched, &e2e, &mut probe_tally);
        out.phase("probe", probe_tally);
        out.metrics = metrics;
        out.spans = Some(spans);
        return out;
    }

    out.metric("qps", qps, "1/s", m.rates.queries);
    out.detail("qps_slices", m.rates.to_json());
    // Decision quantiles over the log's windows, each at its fastest
    // repeat: every window is decided once per timed replay of its part, so
    // the figures need no calm slices. Keeping one time per window, not
    // every call, also keeps `peak_rss_mb` from growing with the run's pace.
    let mut checks = Tally::default();
    checks.check(m.best.complete());
    let windows = m.best.inputs() as u64;
    out.metric("decision_p50_us", m.best.quantile_ns(0.5) / 1e3, "us", windows);
    out.metric("decision_p99_us", m.best.quantile_ns(0.99) / 1e3, "us", windows);
    out.detail("decision", m.best.summary().to_json());
    out.detail("decisions_timed", Json::Num(m.decisions as f64));
    out.phase("sample_counts", checks);
    out.metric("mem_mape", s.mape.percent(), "%", s.mape.windows());
    let sched_cost = m.reports.iter().map(ScheduleReport::total_cost).sum::<f64>()
        / m.reports.len().max(1) as f64;
    out.metric("sched_cost", sched_cost, "cost", m.reports.len() as u64);
    out.metric("model_bytes", s.model.footprint_bytes() as f64, "bytes", 1);
    out.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    out.metric("setup_s", setup_s, "s", SETUP_REPEATS as u64);
    if let Some(r) = m.reports.first() {
        out.detail(
            "schedule_pattern0",
            Json::obj([
                ("workloads", Json::Num(r.workloads as f64)),
                ("placed_direct", Json::Num(r.placed_direct as f64)),
                ("placed_deferred", Json::Num(r.placed_deferred as f64)),
                ("rejected", Json::Num(r.rejected as f64)),
                ("sla_violations", Json::Num(r.sla_violations as f64)),
                ("overflow_events", Json::Num(r.overflow_events as f64)),
            ]),
        );
    }
    out.detail("replays", Json::Num(m.replays as f64));
    out
}

struct Measured {
    /// Timed replays.
    replays: u64,
    rates: Rates,
    /// Each (timed pattern, part)'s fastest replay.
    replay_best: BestOf,
    /// `predict_now` calls timed.
    decisions: u64,
    /// Each window's fastest decision.
    best: BestOf,
    /// One whole-log report per arrival pattern.
    reports: Vec<ScheduleReport>,
}

/// Replays the whole log once under every arrival pattern (for
/// `sched_cost`), then cycles through [`TIMED_PATTERNS`] patterns, replaying
/// each part of the log under each and timing `Engine::predict_now` — the
/// call that decides a window on this path — on the part's windows after
/// each replay, until `seconds` of replaying have passed. Only replay time
/// counts towards `qps`.
fn measure(s: &Setup, seconds: f64, tally: &mut Tally) -> Measured {
    let mut m = Measured {
        replays: 0,
        rates: Rates::default(),
        replay_best: BestOf::new(TIMED_PATTERNS as usize * s.parts.len()),
        decisions: 0,
        best: BestOf::new(s.predictions.len()),
        reports: Vec::new(),
    };
    // Every window is placed or rejected exactly once, and the rejected
    // ones are those the cluster can never hold.
    let conserves = |report: &ScheduleReport, log: &QueryLog, placeable: u64| {
        report.placed() + report.rejected == report.workloads
            && report.queries == log.len()
            && report.workloads == log.len().div_ceil(WINDOW)
            && log.len() as u64 - placeable == (report.rejected * WINDOW) as u64
    };
    for i in 0..ARRIVAL_PATTERNS {
        let whole = DemandSource::Engine(&s.engine);
        match replay(&s.log, whole, s.sched.scheduler(), &s.sched.pattern(i)) {
            Ok(report) => {
                tally.check(conserves(&report, &s.log, s.placeable_queries));
                m.reports.push(report);
            }
            Err(_) => tally.check(false),
        }
    }
    let mut first: Vec<Option<ScheduleReport>> =
        (0..m.replay_best.inputs()).map(|_| None).collect();
    while m.rates.busy_s < seconds {
        for i in 0..TIMED_PATTERNS {
            for (k, part) in s.parts.iter().enumerate() {
                let t0 = Instant::now();
                let result = replay(
                    &part.log,
                    DemandSource::Engine(&s.engine),
                    s.sched.scheduler(),
                    &s.sched.pattern(i),
                );
                let dt = t0.elapsed();
                let key = i as usize * s.parts.len() + k;
                m.rates.slice(part.placeable_queries, dt.as_secs_f64());
                m.replay_best.push(key, dt);
                m.replays += 1;
                match result {
                    Ok(report) => {
                        // A replay of the same inputs repeats bit for bit.
                        tally.check(conserves(&report, &part.log, part.placeable_queries));
                        match &first[key] {
                            Some(f) => tally.check(*f == report),
                            None => first[key] = Some(report),
                        }
                    }
                    Err(_) => tally.check(false),
                }
                let windows = part.log.records.chunks(WINDOW);
                for (j, chunk) in windows.enumerate() {
                    let w = part.first_window + j;
                    let refs: Vec<&QueryRecord> = chunk.iter().collect();
                    let c0 = Instant::now();
                    let decided = s.engine.predict_now(&refs);
                    m.best.push(w, c0.elapsed());
                    m.decisions += 1;
                    tally.check(decided.is_ok_and(|d| same_bits(d, s.predictions[w])));
                }
            }
        }
    }
    tally.check(m.reports.len() == ARRIVAL_PATTERNS as usize && m.replay_best.complete());
    m
}
