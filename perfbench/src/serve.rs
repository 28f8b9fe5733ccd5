//! `serve_tpcds`: TPC-DS records through one shared `Engine` from two
//! submitter threads, LearnedWMP-XGB with k = 100 templates.

use std::time::{Duration, Instant};

use learnedwmp_core::{build_histogram, LearnedWmp, ModelKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use wmp_plan::ResourceVector;
use wmp_serve::{Engine, PredictorHandle, WindowPolicy};
use wmp_workloads::{QueryLog, QueryRecord};

use crate::common::{
    repeated_setup, same_bits, train, window_truth, Mape, Outcome, Rates, Resolved, RunConfig,
    SchedSetup, ARRIVAL_PATTERNS, SETUP_REPEATS, WINDOW,
};
use crate::report::{peak_rss_mb, Samples, Tally};
use crate::stages::{self, EndToEnd, Path, ProbeInputs};

pub const WHY: &str = "At k = 100, template assignment and the three-head tree regressor do most \
     of the work, and two submitters sharing one engine test the engine-mutex premise. SQL, \
     planning and scheduling do no work here.";

const K: usize = 100;
const TRAIN: usize = 16_000;
const SERVE: usize = 8_000;
const SUBMITTERS: usize = 2;
/// Queries cloned ahead of each timed round (the clones are moved into
/// `Engine::submit`, so cloning stays outside the clock).
const ROUND: usize = 20_000;
/// Closing calls per latency slice, in the order they started: about a
/// millisecond of submitting, short enough that some slices escape a
/// neighbour's load even when it is heavy.
const DECISION_SLICE: usize = 20;
/// The share of slices `decision_p99_us` pools: the calmest hundredth. Two
/// submitters keep both cores busy, so a neighbour's load delays calls in
/// most slices; only the calmest ones show the program's own tail.
const P99_CALM: f64 = 0.01;

/// `(start since the round began, wall time)` of a closing call.
type Close = (Duration, Duration);

struct Setup {
    serve: QueryLog,
    model: LearnedWmp,
    engine: Engine,
    sched: SchedSetup,
}

fn setup(seed: u64) -> Setup {
    let log = wmp_workloads::tpcds::generate(TRAIN + SERVE, seed).expect("TPC-DS generation");
    let train_set: Vec<&QueryRecord> = log.records[..TRAIN].iter().collect();
    let model = train(ModelKind::Xgb, K, &train_set, &log.catalog);
    let engine = Engine::new(
        PredictorHandle::new(model.codec_clone().expect("codec round trip")),
        WindowPolicy::Count(WINDOW),
    );
    // The generator rotates templates in order; arrivals come shuffled.
    let mut records = log.records[TRAIN..].to_vec();
    records.shuffle(&mut StdRng::seed_from_u64(seed));
    let serve =
        QueryLog { benchmark: log.benchmark.clone(), catalog: log.catalog.clone(), records };
    let sched = SchedSetup::scaled_to(&serve.records);
    Setup { serve, model, engine, sched }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let (s, setup_s) =
        if cfg.trace { (setup(cfg.seed), 0.0) } else { repeated_setup(|| setup(cfg.seed)) };
    let seconds = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let mut tally = Tally::default();
    let m = measure(&s, seconds, &mut tally);
    out.phase("serve", tally);
    let qps = m.rates.qps();
    let stats = s.engine.stats();

    if cfg.trace {
        let lines: Vec<String> = s
            .serve
            .records
            .iter()
            .map(|r| wmp_sql::render_sql_dialect(&r.spec, &wmp_sql::Postgres))
            .collect();
        let inputs = ProbeInputs {
            catalog: &s.serve.catalog,
            lines: &lines,
            records: &s.serve.records,
            model: &s.model,
            handle: s.engine.handle(),
            sched: &s.sched,
            submitters: SUBMITTERS,
            kind: ModelKind::Xgb,
            k: K,
        };
        let e2e = EndToEnd {
            qps,
            submitters: SUBMITTERS,
            windows: stats.windows,
            swaps: stats.swaps,
            retrains_per_query: 0.0,
        };
        let mut probe_tally = Tally::default();
        let (metrics, spans) = stages::probe(&inputs, Path::Records, &e2e, &mut probe_tally);
        out.phase("probe", probe_tally);
        out.metrics = metrics;
        out.spans = Some(spans);
        return out;
    }

    let mut replay_tally = Tally::default();
    let sched_cost = s.sched.mean_cost(&s.serve, &s.engine, &mut replay_tally);
    out.phase("sched_cost_replay", replay_tally);

    out.qps_metric(&m.rates);
    let mut checks = Tally::default();
    out.decision_metrics(&m.decisions, P99_CALM, &mut checks);
    out.phase("sample_counts", checks);
    out.metric("mem_mape", m.mape.percent(), "%", m.mape.windows());
    out.metric("sched_cost", sched_cost, "cost", ARRIVAL_PATTERNS);
    out.metric("model_bytes", s.model.footprint_bytes() as f64, "bytes", 1);
    out.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    out.metric("setup_s", setup_s, "s", SETUP_REPEATS as u64);
    out.detail("queries", crate::report::Json::Num(m.rates.queries as f64));
    out.detail("windows", crate::report::Json::Num(stats.windows as f64));
    out
}

struct Measured {
    rates: Rates,
    decisions: Samples,
    mape: Mape,
}

/// Closed loop: each submitter submits ten queries, waits on their tickets,
/// and repeats. Rounds of [`ROUND`] pre-cloned queries run until `seconds`
/// of submitting have passed; every window is checked between rounds.
fn measure(s: &Setup, seconds: f64, tally: &mut Tally) -> Measured {
    let memo: Vec<usize> = s
        .serve
        .records
        .iter()
        .map(|r| s.model.assign_template(r).expect("generated records assign"))
        .collect();
    let mut m =
        Measured { rates: Rates::default(), decisions: Samples::default(), mape: Mape::default() };
    // A short untimed round first: threads, caches and allocator warm up.
    round(s, &memo, 0, 2_000, tally, &mut Samples::default(), &mut Mape::default());
    let mut offset = 0;
    while m.rates.busy_s < seconds {
        let t = round(s, &memo, offset, ROUND, tally, &mut m.decisions, &mut m.mape);
        m.rates.slice(ROUND as u64, t);
        offset = (offset + ROUND) % s.serve.len();
    }
    tally.check(s.engine.pending_len() == 0);
    let stats = s.engine.stats();
    tally.check(stats.failed == 0 && stats.served == stats.submitted);
    m
}

/// One timed round; returns its submitting wall time in seconds.
fn round(
    s: &Setup,
    memo: &[usize],
    offset: usize,
    n: usize,
    tally: &mut Tally,
    decisions: &mut Samples,
    mape: &mut Mape,
) -> f64 {
    let records = &s.serve.records;
    let mut owned: Vec<Vec<(usize, QueryRecord)>> =
        (0..SUBMITTERS).map(|_| Vec::with_capacity(n / SUBMITTERS + 1)).collect();
    for j in 0..n {
        let i = (offset + j) % records.len();
        owned[j % SUBMITTERS].push((i, records[i].clone()));
    }
    let engine = &s.engine;
    let t0 = Instant::now();
    let results: Vec<(Vec<Resolved>, Vec<Close>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = owned
            .into_iter()
            .map(|mine| {
                scope.spawn(move || {
                    let mut seen = Vec::with_capacity(mine.len());
                    let mut closes = Vec::with_capacity(mine.len() / WINDOW + 1);
                    let mut tickets = Vec::with_capacity(WINDOW);
                    let mut it = mine.into_iter().peekable();
                    while it.peek().is_some() {
                        tickets.clear();
                        for (i, record) in it.by_ref().take(WINDOW) {
                            let c0 = Instant::now();
                            let ticket = engine.submit(record);
                            let dt = c0.elapsed();
                            // A ticket already resolved on return means this
                            // call closed and scored its window.
                            if ticket.is_resolved() {
                                closes.push((c0 - t0, dt));
                            }
                            tickets.push((i, ticket));
                        }
                        for (i, ticket) in &tickets {
                            match ticket.wait() {
                                Ok(d) => seen.push((d.window_id, *i, d.predicted)),
                                Err(_) => seen.push((u64::MAX, *i, ResourceVector::ZERO)),
                            }
                        }
                    }
                    (seen, closes)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("submitter thread")).collect()
    });
    let busy = t0.elapsed().as_secs_f64();

    let mut seen = Vec::with_capacity(n);
    let mut closes = Vec::with_capacity(n / WINDOW + 1);
    for (thread_seen, thread_closes) in results {
        seen.extend(thread_seen);
        closes.extend(thread_closes);
    }
    closes.sort_unstable();
    for (_, dt) in closes {
        decisions.push(dt);
        if decisions.len().is_multiple_of(DECISION_SLICE) {
            decisions.end_slice();
        }
    }
    seen.sort_unstable_by_key(|&(w, i, _)| (w, i));
    for window in seen.chunk_by(|a, b| a.0 == b.0) {
        let members: Vec<&QueryRecord> = window.iter().map(|&(_, i, _)| &records[i]).collect();
        let decided = window[0].2;
        let reference = reference(s, memo, window, &members);
        let ok = window[0].0 != u64::MAX
            && members.len() == WINDOW
            && window.iter().all(|&(_, _, d)| same_bits(d, decided))
            && reference.is_some_and(|r| same_bits(r, decided));
        // Every member of a wrong window counts as a failed operation.
        tally.attempted += members.len() as u64;
        if !ok {
            tally.failed += members.len() as u64;
        }
        mape.add(decided.memory_mb, window_truth(&members).memory_mb);
    }
    busy
}

/// `LearnedWmp::predict_resources` on a window's members, from templates
/// assigned once per record — the memoization `predict_resources_many`
/// uses. Every hundredth window also takes the direct call, which keeps the
/// shortcut honest.
fn reference(
    s: &Setup,
    memo: &[usize],
    window: &[Resolved],
    members: &[&QueryRecord],
) -> Option<ResourceVector> {
    if window[0].0.is_multiple_of(100) {
        return s.model.predict_resources(members).ok();
    }
    let assigned: Vec<usize> = window.iter().map(|&(_, i, _)| memo[i]).collect();
    let k = s.model.templates().n_templates();
    let h = build_histogram(&assigned, k, s.model.config().histogram_mode).ok()?;
    let multi = s.model.regressor().predict_row_multi(&h).ok()?;
    Some(ResourceVector::from_partial(&multi))
}
