//! The traced run: the benchmark calls each layer's public functions
//! itself, in pipeline order, on a workload's inputs, with a span around
//! every call. Every workload runs every probe on its own inputs, so each
//! per-layer metric exists on each workload; `gap.unexplained_ns` then takes
//! only the stages on that workload's own path.

use std::time::Instant;

use learnedwmp_core::{build_histogram, LearnedWmp, ModelKind, OnlinePolicy, OnlineWmp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wmp_plan::features::featurize_plan;
use wmp_plan::{Catalog, Planner, ResourceVector};
use wmp_sched::{DemandSource, ScheduleReport, WorkloadRequest};
use wmp_serve::{Engine, PredictorHandle, SqlFrontend, WindowPolicy};
use wmp_sim::{DbmsHeuristicEstimator, ExecutorSimulator};
use wmp_sql::Postgres;
use wmp_workloads::{QueryLog, QueryRecord, NO_TEMPLATE_HINT};

use crate::common::{same_bits, train, window_truth, Metric, Resolved, SchedSetup, WINDOW};
use crate::report::{Samples, Tally};
use crate::trace::{Tracer, ROOT};

/// Queries each probe pushes through its pipeline (fewer when the workload
/// has fewer): enough for stable means, few enough to keep every span.
pub const PROBE_QUERIES: usize = 4_000;

/// Observations in a retraining window (`OnlinePolicy::window`), which is
/// also the training-set size `core.fit_ms` is measured on.
pub const RETRAIN_WINDOW: usize = 8_000;

const FIT_REPEATS: usize = 2;
const INSTALL_REPEATS: usize = 20;

/// A workload's inputs, as the probes see them.
pub struct ProbeInputs<'a> {
    pub catalog: &'a Catalog,
    /// The stream as Postgres SQL text (rejection lines included).
    pub lines: &'a [String],
    /// The stream as records, in order.
    pub records: &'a [QueryRecord],
    /// The serving model; the engine serves a bit-identical codec copy.
    pub model: &'a LearnedWmp,
    pub handle: &'a PredictorHandle,
    pub sched: &'a SchedSetup,
    pub submitters: usize,
    pub kind: ModelKind,
    pub k: usize,
}

/// Which of a workload's stages make up its own path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Records → engine windows (`serve_tpcds`).
    Records,
    /// SQL text → engine windows (`sql_tpch`).
    Sql,
    /// Records → `predict_now` → scheduler (`sched_tpch`).
    Sched,
    /// Records → engine windows → `observe` → retrain and swap (`retrain_tpcc`).
    Retrain,
}

/// What the untraced part of a traced run measured end to end.
pub struct EndToEnd {
    pub qps: f64,
    /// Threads that shared the work (ns per query is per thread).
    pub submitters: usize,
    pub windows: u64,
    pub swaps: u64,
    /// Retraining passes per query on the retraining path.
    pub retrains_per_query: f64,
}

/// Runs every probe, checks their outputs, and returns the per-layer
/// metrics in `BENCHMARK.json` order plus the spans.
pub fn probe(
    inputs: &ProbeInputs<'_>,
    path: Path,
    e2e: &EndToEnd,
    tally: &mut Tally,
) -> (Vec<Metric>, Tracer) {
    let epoch = Instant::now();
    let mut tr = Tracer::new(true, epoch);
    let n = PROBE_QUERIES.min(inputs.records.len()) / WINDOW * WINDOW;
    let records = &inputs.records[..n];
    let lines = &inputs.lines[..PROBE_QUERIES.min(inputs.lines.len())];

    // The workload's own path untraced (after a warm-up pass) and traced:
    // the ratio of the two is the tracing overhead.
    let mut quiet = Tracer::new(false, epoch);
    run_path(&mut quiet, inputs, path, records, lines);
    let t0 = Instant::now();
    let first = run_path(&mut quiet, inputs, path, records, lines);
    let untraced = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let second = run_path(&mut tr, inputs, path, records, lines);
    let traced = t0.elapsed().as_secs_f64();
    check(&first, inputs, tally);

    // The pipelines off the workload's path, then the per-call probes.
    let mut outs = vec![second];
    if path != Path::Sql {
        outs.push(sql_pipeline(&mut tr, inputs, lines));
    }
    if path == Path::Sql || path == Path::Sched {
        outs.push(records_pipeline(&mut tr, inputs, records));
    }
    if path != Path::Sched {
        outs.push(sched_pipeline(&mut tr, inputs, inputs.records));
    }
    let mut sql_rejected = 0;
    let mut report = None;
    for out in &outs {
        check(out, inputs, tally);
        match out {
            // Only the SQL pipeline rejects.
            PathOut::Windows { rejected, .. } => sql_rejected += rejected,
            PathOut::Schedule(r) => report = Some(r.clone()),
        }
    }
    let report = report.expect("every probe schedules once");
    let enqueue = engine_calls(&mut tr, inputs, records, tally);
    submit_sql_calls(&mut tr, inputs, lines, tally);
    retrain_calls(&mut tr, inputs, records, tally);

    let st = tr.self_times();
    let mean = |name: &str| st.get(name).map_or(0.0, |&(calls, total)| total / calls.max(1) as f64);
    let calls = |name: &str| st.get(name).map_or(0, |&(calls, _)| calls);
    let w = WINDOW as f64;
    let window_stages =
        mean("core.snapshot") / w + mean("core.histogram") / w + mean("mlkit.regress") / w;
    let sql_stages = mean("sql.parse")
        + mean("sql.lower")
        + mean("plan.plan")
        + mean("plan.featurize")
        + mean("sim.price");
    let stage_ns = match path {
        Path::Records => mean("core.assign") + window_stages,
        Path::Sql => sql_stages + mean("core.assign") + window_stages,
        Path::Sched => {
            (mean("serve.predict_now") + mean("sched.submit")) / w
                + mean("sched.drain") / inputs.records.len().max(1) as f64
        }
        Path::Retrain => {
            mean("core.assign")
                + window_stages
                + mean("serve.observe")
                + e2e.retrains_per_query * (mean("core.fit") + mean("serve.install"))
        }
    };
    let e2e_ns = e2e.submitters as f64 * 1e9 / e2e.qps.max(1e-9);
    let workloads = report.workloads.max(1) as f64;

    let metrics = vec![
        ("sql.parse_ns", mean("sql.parse"), "ns", calls("sql.parse")),
        ("sql.lower_ns", mean("sql.lower"), "ns", calls("sql.lower")),
        ("plan.plan_ns", mean("plan.plan"), "ns", calls("plan.plan")),
        ("plan.featurize_ns", mean("plan.featurize"), "ns", calls("plan.featurize")),
        ("sim.price_ns", mean("sim.price"), "ns", calls("sim.price")),
        ("serve.submit_sql_ns", mean("serve.submit_sql"), "ns", calls("serve.submit_sql")),
        ("core.assign_ns", mean("core.assign"), "ns", calls("core.assign")),
        ("core.histogram_ns", mean("core.histogram"), "ns", calls("core.histogram")),
        ("core.snapshot_ns", mean("core.snapshot"), "ns", calls("core.snapshot")),
        ("mlkit.regress_ns", mean("mlkit.regress"), "ns", calls("mlkit.regress")),
        ("serve.enqueue_ns", mean("serve.enqueue"), "ns", calls("serve.enqueue")),
        ("serve.enqueue_p99_ns", enqueue.quantile_ns(0.99), "ns", enqueue.len() as u64),
        ("serve.close_ns", mean("serve.close"), "ns", calls("serve.close")),
        ("serve.predict_now_ns", mean("serve.predict_now"), "ns", calls("serve.predict_now")),
        (
            "serve.window_overhead_ns",
            mean("serve.close") - mean("serve.predict_now"),
            "ns",
            calls("serve.close"),
        ),
        ("serve.observe_ns", mean("serve.observe"), "ns", calls("serve.observe")),
        ("serve.install_ns", mean("serve.install"), "ns", calls("serve.install")),
        ("core.fit_ms", mean("core.fit") / 1e6, "ms", calls("core.fit")),
        ("sched.submit_ns", mean("sched.submit"), "ns", calls("sched.submit")),
        ("sched.drain_ms", mean("sched.drain") / 1e6, "ms", calls("sched.drain")),
        (
            "sched.deferred_ratio",
            report.placed_deferred as f64 / workloads,
            "ratio",
            report.workloads as u64,
        ),
        ("sched.sla_violations", report.sla_violations as f64, "count", report.workloads as u64),
        ("sched.overflow_events", report.overflow_events as f64, "count", report.workloads as u64),
        ("sched.rejected", report.rejected as f64, "count", report.workloads as u64),
        ("serve.windows", e2e.windows as f64, "count", 1),
        ("serve.swaps", e2e.swaps as f64, "count", 1),
        ("sql.rejected", sql_rejected as f64, "count", 1),
        ("gap.unexplained_ns", e2e_ns - stage_ns, "ns", records.len() as u64),
        (
            "trace.overhead_pct",
            100.0 * (traced / untraced.max(1e-12) - 1.0),
            "%",
            records.len() as u64,
        ),
    ];
    (metrics, tr)
}

/// What a pipeline produced, checked after timing.
enum PathOut {
    /// Closed windows' members in order, their predictions, and the SQL
    /// statements rejected on the way.
    Windows {
        members: Vec<QueryRecord>,
        predictions: Vec<ResourceVector>,
        rejected: usize,
    },
    Schedule(ScheduleReport),
}

/// The workload's own path.
fn run_path(
    tr: &mut Tracer,
    inputs: &ProbeInputs<'_>,
    path: Path,
    records: &[QueryRecord],
    lines: &[String],
) -> PathOut {
    match path {
        Path::Records | Path::Retrain => records_pipeline(tr, inputs, records),
        Path::Sql => sql_pipeline(tr, inputs, lines),
        Path::Sched => sched_pipeline(tr, inputs, inputs.records),
    }
}

/// Histograms and regresses one window's assigned templates under `window`.
fn score_window(
    tr: &mut Tracer,
    model: &LearnedWmp,
    window: u32,
    assigned: &[usize],
    predictions: &mut Vec<ResourceVector>,
) {
    let k = model.templates().n_templates();
    let mode = model.config().histogram_mode;
    let h = tr
        .span("core.histogram", window, || build_histogram(assigned, k, mode))
        .expect("assigned templates are in range");
    let multi = tr
        .span("mlkit.regress", window, || model.regressor().predict_row_multi(&h))
        .expect("histogram width matches the regressor");
    predictions.push(ResourceVector::from_partial(&multi));
}

/// Records: snapshot → assign → histogram → regress, one window at a time.
fn records_pipeline(tr: &mut Tracer, inputs: &ProbeInputs<'_>, records: &[QueryRecord]) -> PathOut {
    let model = inputs.model;
    let mut predictions = Vec::with_capacity(records.len() / WINDOW);
    let mut assigned = Vec::with_capacity(WINDOW);
    for chunk in records.chunks(WINDOW) {
        let window = tr.open("window", ROOT);
        let snapshot = tr.span("core.snapshot", window, || inputs.handle.snapshot());
        assigned.clear();
        for record in chunk {
            let query = tr.open("query", window);
            let a = tr.span("core.assign", query, || model.assign_template(record));
            tr.close(query);
            assigned.push(a.expect("generated records assign"));
        }
        score_window(tr, model, window, &assigned, &mut predictions);
        drop(snapshot);
        tr.close(window);
    }
    PathOut::Windows { members: records.to_vec(), predictions, rejected: 0 }
}

/// SQL: parse → lower → plan → featurize → price → assign, then histogram →
/// regress per window of accepted statements. Returns the rejections.
fn sql_pipeline(tr: &mut Tracer, inputs: &ProbeInputs<'_>, lines: &[String]) -> PathOut {
    let model = inputs.model;
    let planner = Planner::new(inputs.catalog);
    let simulator = ExecutorSimulator::new();
    let heuristic = DbmsHeuristicEstimator::new();
    let mut rejected = 0;
    let mut built: Vec<QueryRecord> = Vec::with_capacity(lines.len());
    let mut predictions = Vec::new();
    let mut assigned = Vec::with_capacity(WINDOW);
    let mut window = tr.open("window", ROOT);
    let mut snapshot = Some(tr.span("core.snapshot", window, || inputs.handle.snapshot()));
    let mut window_start = 0;
    for line in lines {
        let query = tr.open("query", window);
        let stmt = tr.span("sql.parse", query, || wmp_sql::parse(line, &Postgres));
        let spec = stmt
            .and_then(|stmt| tr.span("sql.lower", query, || wmp_sql::lower(&stmt, inputs.catalog)));
        let Ok(mut spec) = spec else {
            rejected += 1;
            tr.close(query);
            continue;
        };
        spec.id = built.len() as u64;
        let plan = tr.span("plan.plan", query, || planner.plan(&spec)).expect("lowered specs plan");
        let features = tr.span("plan.featurize", query, || featurize_plan(&plan));
        let (resources, dbms_estimate) = tr.span("sim.price", query, || {
            (simulator.true_resources(&plan, spec.id), heuristic.estimate_resources(&plan))
        });
        let record = QueryRecord {
            id: spec.id,
            spec,
            features,
            resources,
            dbms_estimate,
            template_hint: NO_TEMPLATE_HINT,
        };
        let a = tr.span("core.assign", query, || model.assign_template(&record));
        tr.close(query);
        assigned.push(a.expect("ingested records assign"));
        built.push(record);
        if assigned.len() == WINDOW {
            score_window(tr, model, window, &assigned, &mut predictions);
            assigned.clear();
            window_start = built.len();
            drop(snapshot.take());
            tr.close(window);
            window = tr.open("window", ROOT);
            snapshot = Some(tr.span("core.snapshot", window, || inputs.handle.snapshot()));
        }
    }
    drop(snapshot);
    tr.close(window);
    built.truncate(window_start);
    PathOut::Windows { members: built, predictions, rejected }
}

/// Scheduling: `predict_now` per window → `Scheduler::submit` →
/// `run_to_completion`, the loop `wmp_sched::replay` runs.
fn sched_pipeline(tr: &mut Tracer, inputs: &ProbeInputs<'_>, records: &[QueryRecord]) -> PathOut {
    let engine = Engine::new(inputs.handle.clone(), WindowPolicy::Count(WINDOW));
    let config = inputs.sched.replay;
    let mut scheduler = inputs.sched.scheduler();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut arrival = 0u64;
    for (i, chunk) in records.chunks(WINDOW).enumerate() {
        let window = tr.open("window", ROOT);
        arrival += config.arrivals.next_gap(&mut rng);
        let refs: Vec<&QueryRecord> = chunk.iter().collect();
        let actual = window_truth(&refs);
        let decision = tr
            .span("serve.predict_now", window, || engine.predict_now(&refs))
            .expect("generated records predict");
        let request = WorkloadRequest {
            id: i as u64,
            tenant: i,
            arrival,
            duration: (actual.cpu_ms.ceil() as u64).max(1),
            decision,
            actual,
            queries: chunk.len(),
        };
        tr.span("sched.submit", window, || scheduler.submit(request));
        tr.close(window);
    }
    let mut report = tr.span("sched.drain", ROOT, || scheduler.run_to_completion());
    report.demand_source = DemandSource::Engine(&engine).label().to_string();
    PathOut::Schedule(report)
}

/// Checks a probe's outputs against the library's one-call paths:
/// `LearnedWmp::predict_resources` per window, `wmp_sched::replay` per
/// schedule.
fn check(out: &PathOut, inputs: &ProbeInputs<'_>, tally: &mut Tally) {
    match out {
        PathOut::Windows { members, predictions, .. } => {
            for (window, &predicted) in members.chunks(WINDOW).zip(predictions) {
                let refs: Vec<&QueryRecord> = window.iter().collect();
                let reference = inputs.model.predict_resources(&refs);
                tally.check(reference.is_ok_and(|r| same_bits(r, predicted)));
            }
            tally.check(members.len() == predictions.len() * WINDOW);
        }
        PathOut::Schedule(report) => {
            let engine = Engine::new(inputs.handle.clone(), WindowPolicy::Count(WINDOW));
            let log = QueryLog {
                benchmark: "probe".into(),
                catalog: inputs.catalog.clone(),
                records: inputs.records.to_vec(),
            };
            let reference = wmp_sched::replay(
                &log,
                DemandSource::Engine(&engine),
                inputs.sched.scheduler(),
                &inputs.sched.replay,
            );
            tally.check(reference.is_ok_and(|r| r == *report));
        }
    }
}

/// `Engine::submit` per call with the workload's submitter threads, split
/// into calls that only enqueue and calls that close a window; then
/// `Engine::predict_now` on each closed window's members. Returns the
/// enqueue samples (for their p99).
fn engine_calls(
    tr: &mut Tracer,
    inputs: &ProbeInputs<'_>,
    records: &[QueryRecord],
    tally: &mut Tally,
) -> Samples {
    let engine = Engine::new(inputs.handle.clone(), WindowPolicy::Count(WINDOW));
    let epoch = tr.epoch();
    let threads = inputs.submitters.max(1);
    let mut owned: Vec<Vec<(usize, QueryRecord)>> = vec![Vec::new(); threads];
    for (i, r) in records.iter().enumerate() {
        owned[i % threads].push((i, r.clone()));
    }
    let results: Vec<(Tracer, Vec<Resolved>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = owned
            .into_iter()
            .map(|mine| {
                let engine = &engine;
                scope.spawn(move || {
                    let mut tr = Tracer::new(true, epoch);
                    let mut seen = Vec::with_capacity(mine.len());
                    let mut tickets = Vec::with_capacity(WINDOW);
                    let mut it = mine.into_iter().peekable();
                    while it.peek().is_some() {
                        tickets.clear();
                        for (i, record) in it.by_ref().take(WINDOW) {
                            let span = tr.open("serve.enqueue", ROOT);
                            let ticket = engine.submit(record);
                            tr.close(span);
                            if ticket.is_resolved() {
                                tr.rename(span, "serve.close");
                            }
                            tickets.push((i, ticket));
                        }
                        for (i, ticket) in &tickets {
                            if let Ok(d) = ticket.wait() {
                                seen.push((d.window_id, *i, d.predicted));
                            }
                        }
                    }
                    (tr, seen)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("submitter thread")).collect()
    });
    let mut seen = Vec::new();
    for (thread_tr, thread_seen) in results {
        tr.absorb(thread_tr);
        seen.extend(thread_seen);
    }
    tally.check(seen.len() == records.len());
    seen.sort_by_key(|&(w, i, _)| (w, i));
    for window in seen.chunk_by(|a, b| a.0 == b.0) {
        let members: Vec<&QueryRecord> = window.iter().map(|&(_, i, _)| &records[i]).collect();
        let span = tr.open("serve.predict_now", ROOT);
        let now = engine.predict_now(&members);
        tr.close(span);
        let decided = window[0].2;
        tally.check(
            now.is_ok_and(|p| same_bits(p, decided))
                && window.iter().all(|&(_, _, d)| same_bits(d, decided)),
        );
    }
    tr.durations("serve.enqueue")
}

/// `Engine::submit_sql` per statement on an engine with a Postgres front-end
/// over the workload's catalog, sharing the serving handle.
fn submit_sql_calls(
    tr: &mut Tracer,
    inputs: &ProbeInputs<'_>,
    lines: &[String],
    tally: &mut Tally,
) {
    let engine = Engine::new(inputs.handle.clone(), WindowPolicy::Count(WINDOW))
        .with_sql_frontend(SqlFrontend::new(inputs.catalog.clone(), Box::new(Postgres)));
    let mut accepted = 0u64;
    for line in lines {
        let ticket = tr.span("serve.submit_sql", ROOT, || engine.submit_sql(line));
        accepted += u64::from(ticket.is_ok());
    }
    engine.drain();
    let stats = engine.stats();
    tally.check(stats.submitted == accepted && stats.served == accepted);
}

/// `Engine::observe` on an engine whose retrainer buffers but never fires,
/// `Engine::install` of ready-made models, and `LearnedWmpBuilder::fit` on
/// a retraining window of the workload's records.
fn retrain_calls(
    tr: &mut Tracer,
    inputs: &ProbeInputs<'_>,
    records: &[QueryRecord],
    tally: &mut Tally,
) {
    let fit_set: Vec<&QueryRecord> = records.iter().take(RETRAIN_WINDOW).collect();
    for _ in 0..FIT_REPEATS {
        let model =
            tr.span("core.fit", ROOT, || train(inputs.kind, inputs.k, &fit_set, inputs.catalog));
        tally.check(model.footprint_bytes() > 0);
    }

    let policy =
        OnlinePolicy { retrain_every: usize::MAX, window: RETRAIN_WINDOW, k_templates: inputs.k };
    let mut online = OnlineWmp::new(inputs.model.config().clone(), policy);
    online.warm_start(inputs.model.codec_clone().expect("codec round trip"));
    let engine = Engine::new(
        PredictorHandle::new(inputs.model.codec_clone().expect("codec round trip")),
        WindowPolicy::Count(WINDOW),
    )
    .with_retraining(online, inputs.catalog.clone());
    let copies: Vec<QueryRecord> = records.to_vec();
    for record in copies {
        let sent = tr.span("serve.observe", ROOT, || engine.observe(record));
        tally.check(sent);
    }
    let models: Vec<LearnedWmp> = (0..INSTALL_REPEATS)
        .map(|_| inputs.model.codec_clone().expect("codec round trip"))
        .collect();
    for (i, model) in models.into_iter().enumerate() {
        let version = tr.span("serve.install", ROOT, || engine.install(model));
        tally.check(version == i as u64 + 1);
    }
}
