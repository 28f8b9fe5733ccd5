//! `sql_tpch`: a TPC-H log as Postgres SQL text, one statement at a time
//! through `Engine::submit_sql`, LearnedWMP-XGB with k = 22 templates, and
//! about 2% of the lines rejected with typed errors.

use std::time::Instant;

use learnedwmp_core::{LearnedWmp, ModelKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wmp_plan::ResourceVector;
use wmp_serve::{Engine, PredictorHandle, QueryTicket, SqlFrontend, WindowPolicy};
use wmp_sql::Postgres;
use wmp_workloads::{QueryLog, QueryRecord};

use crate::common::{
    repeated_setup, same_bits, train, window_truth, Mape, Outcome, Rates, RunConfig, SchedSetup,
    ARRIVAL_PATTERNS, DECISION_SLICE, SETUP_REPEATS, WINDOW,
};
use crate::report::{peak_rss_mb, Json, Samples, Tally, CALM};
use crate::stages::{self, EndToEnd, Path, ProbeInputs};

pub const WHY: &str = "Parse, lower and plan take most of each statement's time, so changes to \
     wmp_sql and wmp_plan show here while assignment and the regressor are under a tenth. The \
     rejection lines keep the typed-error path in the measured path.";

const K: usize = 22;
const TRAIN: usize = 4_000;
/// Accepted statements in the stream: a multiple of [`WINDOW`], so every
/// pass over the stream closes the same windows.
const SERVE: usize = 2_000;
/// One rejection line per this many accepted lines (2%).
const REJECT_EVERY: usize = 50;
/// Windows per throughput slice.
const SLICE_WINDOWS: u64 = 1_000;

/// Lines the front-end must reject, with the `ParseError::kind` expected
/// (the kinds `tests/sql_corpus.rs` pins): DML, unsupported shapes, and an
/// unknown table.
const REJECTS: [(&str, &str); 6] = [
    ("UPDATE lineitem SET l_quantity = 1", "unexpected_token"),
    ("DELETE FROM orders", "unexpected_token"),
    ("INSERT INTO nation VALUES (1)", "unexpected_token"),
    ("SELECT l.l_quantity FROM lineitem l WHERE l.l_quantity = 1 OR l.l_tax = 2", "unsupported"),
    (
        "SELECT o.o_orderkey FROM orders o LEFT JOIN customer c ON o.o_custkey = c.c_custkey",
        "unsupported",
    ),
    ("SELECT t.x FROM no_such_table t", "unknown_table"),
];

struct Setup {
    lines: Vec<String>,
    /// Per line: `None` to accept, or the rejection kind expected.
    expected: Vec<Option<&'static str>>,
    /// The accepted lines as `QueryLog::from_sql_lines` builds them.
    reference: QueryLog,
    /// `LearnedWmp::predict_resources` per window of `reference`.
    predictions: Vec<ResourceVector>,
    model: LearnedWmp,
    engine: Engine,
    sched: SchedSetup,
    tally: Tally,
}

fn render(records: &[QueryRecord]) -> Vec<String> {
    records.iter().map(|r| wmp_sql::render_sql_dialect(&r.spec, &Postgres)).collect()
}

fn setup(seed: u64) -> Setup {
    let mut tally = Tally::default();
    let log = wmp_workloads::tpch::generate(TRAIN + SERVE, seed).expect("TPC-H generation");
    let catalog = log.catalog.clone();

    // Train on the ingested form of a training log, as a deployment would.
    let (train_log, train_errors) = QueryLog::from_sql_lines(
        "tpch",
        catalog.clone(),
        &render(&log.records[..TRAIN]).join("\n"),
        &Postgres,
    )
    .expect("planning ingested TPC-H");
    tally.check(train_errors.is_empty());
    let train_set: Vec<&QueryRecord> = train_log.records.iter().collect();
    let model = train(ModelKind::Xgb, K, &train_set, &catalog);

    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut lines = Vec::with_capacity(SERVE + SERVE / REJECT_EVERY);
    let mut expected = Vec::with_capacity(lines.capacity());
    let mut reject_at = 0;
    for (i, line) in render(&log.records[TRAIN..]).into_iter().enumerate() {
        // One rejection at a seeded position in each block of accepted lines.
        if i % REJECT_EVERY == 0 {
            reject_at = i + rng.gen_range(0..REJECT_EVERY);
        }
        if i == reject_at {
            let (sql, kind) = REJECTS[(i / REJECT_EVERY) % REJECTS.len()];
            lines.push(sql.to_string());
            expected.push(Some(kind));
        }
        lines.push(line);
        expected.push(None);
    }

    let (reference, errors) =
        QueryLog::from_sql_lines("tpch", catalog.clone(), &lines.join("\n"), &Postgres)
            .expect("planning ingested TPC-H");
    tally.check(reference.len() == SERVE);
    tally.check(errors.len() == SERVE / REJECT_EVERY);
    for e in &errors {
        tally.check(expected.get(e.line - 1).copied().flatten() == Some(e.error.kind()));
    }
    let predictions = reference
        .records
        .chunks(WINDOW)
        .map(|w| {
            let refs: Vec<&QueryRecord> = w.iter().collect();
            model.predict_resources(&refs).expect("reference prediction")
        })
        .collect();
    let engine = Engine::new(
        PredictorHandle::new(model.codec_clone().expect("codec round trip")),
        WindowPolicy::Count(WINDOW),
    )
    .with_sql_frontend(SqlFrontend::new(catalog, Box::new(Postgres)));
    let sched = SchedSetup::scaled_to(&reference.records);
    Setup { lines, expected, reference, predictions, model, engine, sched, tally }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let (mut s, setup_s) =
        if cfg.trace { (setup(cfg.seed), 0.0) } else { repeated_setup(|| setup(cfg.seed)) };
    out.phase("setup_checks", std::mem::take(&mut s.tally));
    let seconds = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let mut tally = Tally::default();
    let m = measure(&s, seconds, &mut tally);
    out.phase("submit_sql", tally);
    let qps = m.rates.qps();

    if cfg.trace {
        let inputs = ProbeInputs {
            catalog: &s.reference.catalog,
            lines: &s.lines,
            records: &s.reference.records,
            model: &s.model,
            handle: s.engine.handle(),
            sched: &s.sched,
            submitters: 1,
            kind: ModelKind::Xgb,
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
        let (metrics, spans) = stages::probe(&inputs, Path::Sql, &e2e, &mut probe_tally);
        out.phase("probe", probe_tally);
        out.metrics = metrics;
        out.spans = Some(spans);
        return out;
    }

    let mut replay_tally = Tally::default();
    let sched_cost = s.sched.mean_cost(&s.reference, &s.engine, &mut replay_tally);
    out.phase("sched_cost_replay", replay_tally);

    out.qps_metric(&m.rates);
    let mut checks = Tally::default();
    out.decision_metrics(&m.decisions, CALM, &mut checks);
    out.phase("sample_counts", checks);
    out.metric("mem_mape", m.mape.percent(), "%", m.mape.windows());
    out.metric("sched_cost", sched_cost, "cost", ARRIVAL_PATTERNS);
    out.metric("model_bytes", s.model.footprint_bytes() as f64, "bytes", 1);
    out.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    out.metric("setup_s", setup_s, "s", SETUP_REPEATS as u64);
    out.detail("statements", Json::Num(m.statements as f64));
    out.detail("queries", Json::Num(m.rates.queries as f64));
    out.detail("rejected", Json::Num(m.rejected as f64));
    out
}

struct Measured {
    statements: u64,
    rates: Rates,
    rejected: u64,
    decisions: Samples,
    mape: Mape,
}

/// One thread submits each line and, when a window closes, checks its
/// decision and its members' tickets before going on. The clock stops on a
/// window boundary, so nothing is left pending.
fn measure(s: &Setup, seconds: f64, tally: &mut Tally) -> Measured {
    let mut m = Measured {
        statements: 0,
        rates: Rates::default(),
        rejected: 0,
        decisions: Samples::default(),
        mape: Mape::default(),
    };
    let windows = s.predictions.len();
    let mut window: Vec<QueryTicket> = Vec::with_capacity(WINDOW);
    let mut next_window_id = 0u64;
    let mut pos = 0usize;
    let mut slice_start = Instant::now();
    let mut slice_queries = 0u64;
    loop {
        let line = pos % s.lines.len();
        pos += 1;
        m.statements += 1;
        let c0 = Instant::now();
        let result = s.engine.submit_sql(&s.lines[line]);
        let dt = c0.elapsed();
        let ticket = match (result, s.expected[line]) {
            (Ok(ticket), None) => ticket,
            (Err(e), Some(kind)) => {
                m.rejected += 1;
                tally.check(e.kind() == kind);
                continue;
            }
            (Ok(_), Some(_)) | (Err(_), None) => {
                tally.check(false);
                continue;
            }
        };
        let closed = ticket.is_resolved();
        window.push(ticket);
        if !closed {
            continue;
        }
        m.decisions.push(dt);
        if m.decisions.len().is_multiple_of(DECISION_SLICE) {
            m.decisions.end_slice();
        }
        let index = (next_window_id as usize) % windows;
        let decision = window.last().and_then(QueryTicket::try_get).and_then(Result::ok);
        let ok = decision.is_some_and(|d| {
            d.window_id == next_window_id
                && d.window_len == WINDOW
                && same_bits(d.predicted, s.predictions[index])
                && window.iter().all(|t| t.try_get().is_some_and(|r| r.is_ok_and(|o| o == d)))
        });
        tally.attempted += window.len() as u64;
        if !ok {
            tally.failed += window.len() as u64;
        }
        // Every pass closes the same windows; the error is taken over one.
        if (next_window_id as usize) < windows {
            if let Some(d) = decision {
                let members: Vec<&QueryRecord> =
                    s.reference.records[index * WINDOW..(index + 1) * WINDOW].iter().collect();
                m.mape.add(d.predicted.memory_mb, window_truth(&members).memory_mb);
            }
        }
        slice_queries += window.len() as u64;
        next_window_id += 1;
        window.clear();
        if next_window_id.is_multiple_of(SLICE_WINDOWS) {
            m.rates.slice(slice_queries, slice_start.elapsed().as_secs_f64());
            slice_queries = 0;
            slice_start = Instant::now();
            if m.rates.busy_s >= seconds && next_window_id as usize >= windows {
                break;
            }
        }
    }
    tally.check(s.engine.pending_len() == 0);
    let front = s.engine.sql_frontend().expect("front-end attached");
    tally.check(front.parse_ok() == m.rates.queries && front.parse_errors() == m.rejected);
    m
}
