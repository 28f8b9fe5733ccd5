//! `retrain_tpcc`: TPC-C records served by an engine warm-started on
//! LearnedWMP-XGB (k = 20) with background retraining attached; every
//! resolved query is observed, and models are swapped in while it serves.

use std::time::{Duration, Instant};

use learnedwmp_core::{LearnedWmp, ModelKind, OnlinePolicy, OnlineWmp};
use wmp_serve::{Engine, PredictorHandle, WindowPolicy};
use wmp_workloads::{QueryLog, QueryRecord};

use crate::common::{
    pause, repeated_setup, same_bits, train, window_truth, Mape, Outcome, Rates, RunConfig,
    SchedSetup, ARRIVAL_PATTERNS, DECISION_SLICE, SETUP_REPEATS, WINDOW,
};
use crate::report::{peak_rss_mb, Json, Samples, Tally, CALM};
use crate::stages::{self, EndToEnd, Path, ProbeInputs, RETRAIN_WINDOW};

pub const WHY: &str = "Writes beside reads: model fitting runs on the second core and \
     PredictorHandle::swap runs beside readers, so a training change shows here, and so does a \
     read-path gain that slows swaps or retraining.";

const K: usize = 20;
const WARM: usize = 10_000;
/// Queries in one episode: a fresh warm-started engine serves them all and
/// retrains every [`RETRAIN_EVERY`] observations.
const STREAM: usize = 12_000;
const RETRAIN_EVERY: usize = 4_000;
/// The model version serving once an episode's retraining is done.
const FINAL_VERSION: u64 = (STREAM / RETRAIN_EVERY) as u64;
/// An episode whose retraining has not finished by then has failed.
const EPISODE_TIMEOUT: Duration = Duration::from_secs(60);

struct Setup {
    /// The whole generated log: warm-up queries, then the stream.
    log: QueryLog,
    stream: QueryLog,
    model: LearnedWmp,
    /// The first episode's engine, started as part of set-up.
    engine: Engine,
}

fn start_engine(model: &LearnedWmp, catalog: &wmp_plan::Catalog) -> Engine {
    let policy =
        OnlinePolicy { retrain_every: RETRAIN_EVERY, window: RETRAIN_WINDOW, k_templates: K };
    let mut online = OnlineWmp::new(model.config().clone(), policy);
    online.warm_start(model.codec_clone().expect("codec round trip"));
    Engine::new(
        PredictorHandle::new(model.codec_clone().expect("codec round trip")),
        WindowPolicy::Count(WINDOW),
    )
    .with_retraining(online, catalog.clone())
}

fn setup(seed: u64) -> Setup {
    let log = wmp_workloads::tpcc::generate(WARM + STREAM, seed).expect("TPC-C generation");
    let warm: Vec<&QueryRecord> = log.records[..WARM].iter().collect();
    let model = train(ModelKind::Xgb, K, &warm, &log.catalog);
    let engine = start_engine(&model, &log.catalog);
    let stream = QueryLog {
        benchmark: log.benchmark.clone(),
        catalog: log.catalog.clone(),
        records: log.records[WARM..].to_vec(),
    };
    Setup { log, stream, model, engine }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let (s, setup_s) =
        if cfg.trace { (setup(cfg.seed), 0.0) } else { repeated_setup(|| setup(cfg.seed)) };
    let seconds = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let sched = SchedSetup::scaled_to(&s.log.records);
    let mut tally = Tally::default();
    let m = measure(s, seconds, &sched, &mut tally);
    out.phase("episodes", tally);
    let qps = m.rates.qps();

    if cfg.trace {
        let lines: Vec<String> = m
            .stream
            .records
            .iter()
            .map(|r| wmp_sql::render_sql_dialect(&r.spec, &wmp_sql::Postgres))
            .collect();
        let handle = PredictorHandle::new(m.model.codec_clone().expect("codec round trip"));
        let inputs = ProbeInputs {
            catalog: &m.stream.catalog,
            lines: &lines,
            records: &m.stream.records,
            model: &m.model,
            handle: &handle,
            sched: &sched,
            submitters: 1,
            kind: ModelKind::Xgb,
            k: K,
        };
        let e2e = EndToEnd {
            qps,
            submitters: 1,
            windows: m.windows,
            swaps: m.swaps,
            retrains_per_query: FINAL_VERSION as f64 / STREAM as f64,
        };
        let mut probe_tally = Tally::default();
        let (metrics, spans) = stages::probe(&inputs, Path::Retrain, &e2e, &mut probe_tally);
        out.phase("probe", probe_tally);
        out.metrics = metrics;
        out.spans = Some(spans);
        return out;
    }

    out.qps_metric(&m.rates);
    let mut checks = Tally::default();
    out.decision_metrics(&m.decisions, CALM, &mut checks);
    out.phase("sample_counts", checks);
    out.metric("mem_mape", m.mape.percent(), "%", m.mape.windows());
    out.metric("sched_cost", m.sched_cost, "cost", ARRIVAL_PATTERNS);
    out.metric("model_bytes", m.final_bytes as f64, "bytes", 1);
    out.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    out.metric("setup_s", setup_s, "s", SETUP_REPEATS as u64);
    out.detail("episodes", Json::Num(m.episodes as f64));
    out.detail("swaps", Json::Num(m.swaps as f64));
    out
}

struct Measured {
    log: QueryLog,
    stream: QueryLog,
    model: LearnedWmp,
    episodes: u64,
    rates: Rates,
    windows: u64,
    swaps: u64,
    decisions: Samples,
    mape: Mape,
    final_bytes: usize,
    sched_cost: f64,
}

/// Runs episodes until `seconds` of them have passed. An episode submits
/// the stream one query at a time; when a window resolves, its queries go to
/// `Engine::observe`. Its clock stops when the last expected model version
/// is serving.
fn measure(s: Setup, seconds: f64, sched: &SchedSetup, tally: &mut Tally) -> Measured {
    let Setup { log, stream, model, engine } = s;
    let mut m = Measured {
        log,
        stream,
        model,
        episodes: 0,
        rates: Rates::default(),
        windows: 0,
        swaps: 0,
        decisions: Samples::default(),
        mape: Mape::default(),
        final_bytes: 0,
        sched_cost: f64::NAN,
    };
    let probe: Vec<&QueryRecord> = m.stream.records[..WINDOW].iter().collect();
    let mut final_prediction = None;
    let mut engine = Some(engine);
    while m.rates.busy_s < seconds {
        let engine = engine.take().unwrap_or_else(|| start_engine(&m.model, &m.stream.catalog));
        let submits: Vec<QueryRecord> = m.stream.records.clone();
        let observes: Vec<QueryRecord> = m.stream.records.clone();
        let mut observes = observes.into_iter();
        let mut last_version = 0;
        let mut tickets = Vec::with_capacity(WINDOW);
        let t0 = Instant::now();
        for (i, record) in submits.into_iter().enumerate() {
            let c0 = Instant::now();
            let ticket = engine.submit(record);
            let dt = c0.elapsed();
            let closed = ticket.is_resolved();
            tickets.push(ticket);
            if !closed {
                continue;
            }
            m.decisions.push(dt);
            if m.decisions.len().is_multiple_of(DECISION_SLICE) {
                m.decisions.end_slice();
            }
            let decision = tickets[0].wait();
            let members: Vec<&QueryRecord> =
                m.stream.records[i + 1 - tickets.len()..=i].iter().collect();
            // Versions only move forward, and every member shares the decision.
            let ok = decision.as_ref().is_ok_and(|d| {
                d.model_version >= last_version
                    && d.window_len == members.len()
                    && tickets.iter().all(|t| t.wait().is_ok_and(|o| o == *d))
            });
            tally.attempted += members.len() as u64;
            if !ok {
                tally.failed += members.len() as u64;
            }
            if let Ok(d) = decision {
                last_version = d.model_version;
                m.mape.add(d.predicted.memory_mb, window_truth(&members).memory_mb);
            }
            for record in observes.by_ref().take(tickets.len()) {
                tally.check(engine.observe(record));
            }
            tickets.clear();
        }
        while engine.handle().version() < FINAL_VERSION
            && engine.stats().retrain_failures == 0
            && t0.elapsed() < EPISODE_TIMEOUT
        {
            pause();
        }
        m.rates.slice(m.stream.len() as u64, t0.elapsed().as_secs_f64());
        m.episodes += 1;
        let stats = engine.stats();
        m.windows += stats.windows;
        m.swaps += stats.swaps;
        tally.check(engine.handle().version() == FINAL_VERSION && stats.retrain_failures == 0);
        tally.check(stats.served == m.stream.len() as u64 && engine.pending_len() == 0);

        // Retraining sees the same observations in the same order, so every
        // episode ends on a bit-identical model.
        let snapshot = engine.handle().snapshot();
        let predicted = snapshot.model().predict_resources(&probe);
        match (&final_prediction, predicted) {
            (None, Ok(p)) => {
                final_prediction = Some(p);
                m.final_bytes = snapshot.model().footprint_bytes();
                m.sched_cost = sched.mean_cost(&m.log, &engine, tally);
            }
            (Some(first), Ok(p)) => tally.check(same_bits(*first, p)),
            (_, Err(_)) => tally.check(false),
        }
    }
    m
}
