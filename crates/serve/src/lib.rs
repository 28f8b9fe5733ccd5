//! # wmp-serve — the thread-safe serving engine
//!
//! The paper deploys LearnedWMP as a *resident* predictor inside the DBMS
//! (§I "DBMS Integration"): every arriving workload gets a memory estimate
//! from the current model, executed queries flow back as training data, and
//! the model is periodically retrained without taking the service down.
//! This crate is that serving surface, built on three pieces:
//!
//! - [`Engine`] — the facade: [`Engine::submit`] turns an unbounded query
//!   stream into workload windows and resolves per-query [`QueryTicket`]s
//!   with each window's predicted memory; [`Engine::observe`] streams
//!   executed queries to a background retrainer; [`Engine::reload`]
//!   installs a persisted artifact.
//! - [`PredictorHandle`] (from `learnedwmp_core`) — the shared,
//!   hot-swappable model handle: N request threads read coherent snapshots
//!   while a writer installs a replacement without blocking them.
//! - [`EngineStats`] — lock-free serving telemetry (counters plus p50/p99
//!   window-scoring latency).
//! - [`ObsConfig`] / [`Engine::with_observability`] — registry-backed
//!   observability: the same counters published as exportable `wmp_*`
//!   metrics (Prometheus/JSON via [`wmp_obs`]), plus rolling prediction
//!   quality (MAE, within-one-bucket accuracy) and a template-distribution
//!   drift score fed by [`Engine::observe`].
//! - [`SqlFrontend`] / [`Engine::submit_sql`] — SQL text ingestion: parse
//!   under a [`wmp_sql::Dialect`], lower against the catalog, price, and
//!   enqueue — with typed, span-carrying rejections and
//!   `wmp_sql_parse_ok_total` / `wmp_sql_parse_errors_total` counters.
//!
//! ## Windowing policies and the paper's workload definition
//!
//! The paper (§II) defines a *workload* as a **set of `s` queries executed
//! as a batch**, and its model consumes the workload's template histogram
//! (Algorithm 2) — predictions are inherently per-window, not per-query.
//! A serving engine therefore has to decide where one workload ends and the
//! next begins on a stream that never ends:
//!
//! - [`WindowPolicy::Count`]`(s)` reproduces the paper's fixed-size
//!   workloads at serving time: every `s` submissions close a window, which
//!   is exactly the regime the model was trained in (TR4 batches the
//!   training log into workloads of the same `s`; the evaluation fixes
//!   `s = 10`). Matching the training batch size at serving time keeps the
//!   histogram scale (`Σ H = s`, eq. 8) consistent between training and
//!   inference.
//! - [`WindowPolicy::Drain`] leaves the boundary to the caller
//!   ([`Engine::drain`]), supporting the variable-length-workload extension
//!   the paper sketches in §I — e.g. an admission controller that flushes
//!   whatever arrived in a scheduling tick. Use it with a model trained on
//!   [`HistogramMode::Frequencies`](learnedwmp_core::HistogramMode) or
//!   variable-length batches so window size is not baked into the features.
//!
//! Every query of a window receives the *same* [`WorkloadDecision`] — the
//! window's collective prediction — because the paper's model prices the
//! batch, not its members.
//!
//! ## Example
//!
//! ```
//! use learnedwmp_core::{LearnedWmp, ModelKind, PredictorHandle, TemplateSpec};
//! use wmp_serve::{Engine, WindowPolicy};
//!
//! let log = wmp_workloads::tpcc::generate(300, 7).unwrap();
//! let model = LearnedWmp::builder()
//!     .model(ModelKind::Ridge)
//!     .templates(TemplateSpec::PlanKMeans { k: 6, seed: 7 })
//!     .fit(&log)
//!     .unwrap();
//!
//! let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(10));
//! let tickets: Vec<_> =
//!     log.records.iter().take(10).map(|r| engine.submit(r.clone())).collect();
//! // The 10th submission closed the window: every ticket carries the
//! // window's collective prediction.
//! let decision = tickets[0].wait().unwrap();
//! assert_eq!(decision.window_len, 10);
//! assert!(decision.predicted_mb() > 0.0);
//! assert!(tickets.iter().all(|t| t.is_resolved()));
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod obs;
pub mod sqlfront;
pub mod stats;
pub mod ticket;

pub use engine::{Engine, WindowPolicy};
pub use learnedwmp_core::handle::{ModelSnapshot, PredictorHandle};
pub use obs::ObsConfig;
pub use sqlfront::SqlFrontend;
pub use stats::{EngineStats, StatsSnapshot};
pub use ticket::{QueryTicket, WorkloadDecision};

#[cfg(test)]
mod tests {
    use super::*;
    use learnedwmp_core::{
        LearnedWmp, LearnedWmpConfig, ModelKind, OnlinePolicy, OnlineWmp, TemplateSpec,
    };
    use wmp_workloads::{QueryLog, QueryRecord};

    fn trained_on(log: &QueryLog, kind: ModelKind, seed: u64) -> LearnedWmp {
        LearnedWmp::builder()
            .model(kind)
            .templates(TemplateSpec::PlanKMeans { k: 6, seed })
            .fit(log)
            .unwrap()
    }

    #[test]
    fn count_windows_resolve_with_the_windows_prediction() {
        let log = wmp_workloads::tpcc::generate(200, 1).unwrap();
        let model = trained_on(&log, ModelKind::Ridge, 1);
        let probe: Vec<&QueryRecord> = log.records[..10].iter().collect();
        let expected = model.predict_workload(&probe).unwrap();

        let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(10));
        let tickets: Vec<QueryTicket> =
            log.records[..25].iter().map(|r| engine.submit(r.clone())).collect();

        // 25 submissions at s=10: two full windows scored, 5 queries pending.
        let d0 = tickets[0].wait().unwrap();
        assert_eq!(d0.window_id, 0);
        assert_eq!(d0.window_len, 10);
        assert_eq!(d0.predicted_mb().to_bits(), expected.to_bits());
        for t in &tickets[..10] {
            assert_eq!(t.wait().unwrap(), d0, "one decision per window");
        }
        assert_eq!(tickets[10].wait().unwrap().window_id, 1);
        assert!(!tickets[20].is_resolved());
        assert_eq!(engine.pending_len(), 5);

        // Drain flushes the partial window.
        assert_eq!(engine.drain(), 5);
        assert_eq!(tickets[20].wait().unwrap().window_len, 5);
        assert_eq!(engine.drain(), 0, "nothing left to flush");

        let stats = engine.stats();
        assert_eq!(stats.submitted, 25);
        assert_eq!(stats.served, 25);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.windows, 3);
        assert_eq!(stats.resolved(), stats.submitted);
    }

    #[test]
    fn drain_policy_accumulates_until_flushed() {
        let log = wmp_workloads::tpcc::generate(120, 2).unwrap();
        let model = trained_on(&log, ModelKind::Ridge, 2);
        let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Drain);
        let tickets: Vec<QueryTicket> =
            log.records[..37].iter().map(|r| engine.submit(r.clone())).collect();
        assert!(tickets.iter().all(|t| !t.is_resolved()), "Drain never auto-closes");
        assert_eq!(engine.pending_len(), 37);
        assert_eq!(engine.drain(), 37);
        let d = tickets[36].wait().unwrap();
        assert_eq!(d.window_len, 37);
        assert_eq!(engine.stats().windows, 1);
    }

    #[test]
    fn replayed_stream_feeds_the_engine() {
        let log = wmp_workloads::tpcc::generate(200, 3).unwrap();
        let model = trained_on(&log, ModelKind::Ridge, 3);
        let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(10));
        let mut tickets = Vec::new();
        for chunk in log.replay(64) {
            for record in chunk {
                tickets.push(engine.submit(record.clone()));
            }
        }
        engine.drain();
        assert_eq!(tickets.len(), 200);
        assert!(tickets.iter().all(|t| t.wait().is_ok()));
        assert_eq!(engine.stats().windows, 20);
    }

    #[test]
    fn install_and_reload_swap_the_serving_model() {
        let log = wmp_workloads::tpcc::generate(250, 4).unwrap();
        let a = trained_on(&log, ModelKind::Ridge, 4);
        let b = trained_on(&log, ModelKind::Xgb, 5);
        let probe: Vec<&QueryRecord> = log.records[..10].iter().collect();
        let pa = a.predict_workload(&probe).unwrap();
        let pb = b.predict_workload(&probe).unwrap();
        assert_ne!(pa.to_bits(), pb.to_bits());

        let dir = std::env::temp_dir().join("wmp-serve-reload-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model-b.lwmp");
        b.save_to(&path).unwrap();

        let engine = Engine::new(PredictorHandle::new(a), WindowPolicy::Count(10));
        let first: Vec<QueryTicket> =
            log.records[..10].iter().map(|r| engine.submit(r.clone())).collect();
        assert_eq!(first[0].wait().unwrap().predicted_mb().to_bits(), pa.to_bits());
        assert_eq!(first[0].wait().unwrap().model_version, 0);

        let version = engine.reload(&path).unwrap();
        assert_eq!(version, 1);
        let second: Vec<QueryTicket> =
            log.records[..10].iter().map(|r| engine.submit(r.clone())).collect();
        let d = second[0].wait().unwrap();
        assert_eq!(d.predicted_mb().to_bits(), pb.to_bits(), "reload serves the artifact");
        assert_eq!(d.model_version, 1);
        assert_eq!(engine.stats().swaps, 1);

        assert!(engine.reload(dir.join("missing.lwmp")).is_err());
        assert_eq!(engine.handle().version(), 1, "failed reload keeps the current model serving");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn observe_retrains_in_the_background_and_hot_swaps() {
        let log = wmp_workloads::tpcc::generate(400, 6).unwrap();
        // Seed from a *different* log so the retrained model (trained on
        // `log`'s observations) cannot coincide with the seed bit-for-bit.
        let seed_log = wmp_workloads::tpcc::generate(300, 77).unwrap();
        let seed_model = trained_on(&seed_log, ModelKind::Ridge, 6);
        let probe: Vec<&QueryRecord> = log.records[..10].iter().collect();
        let seeded = seed_model.predict_workload(&probe).unwrap();

        let config = LearnedWmpConfig { model: ModelKind::Ridge, ..Default::default() };
        let policy = OnlinePolicy { retrain_every: 200, window: 1_000, k_templates: 6 };
        let online = OnlineWmp::new(config, policy);
        let engine = Engine::new(PredictorHandle::new(seed_model), WindowPolicy::Count(10))
            .with_retraining(online, log.catalog.clone());

        for r in &log.records {
            assert!(engine.observe(r.clone()));
        }
        // The retrainer runs on its own thread; wait for both passes
        // (400 observations / retrain_every 200) to publish.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while engine.stats().retrains < 2 {
            assert!(std::time::Instant::now() < deadline, "retraining never published");
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let stats = engine.stats();
        assert_eq!(stats.observed, 400);
        assert_eq!(stats.retrain_failures, 0);
        assert!(engine.handle().version() >= 2);

        // Predictions now come from a retrained model, not the seed.
        let tickets: Vec<QueryTicket> =
            log.records[..10].iter().map(|r| engine.submit(r.clone())).collect();
        let d = tickets[9].wait().unwrap();
        assert!(d.model_version >= 2);
        assert_ne!(d.predicted_mb().to_bits(), seeded.to_bits());
    }

    #[test]
    fn observe_without_a_retrainer_reports_false() {
        let log = wmp_workloads::tpcc::generate(60, 8).unwrap();
        let model = trained_on(&log, ModelKind::Ridge, 8);
        let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(10));
        assert!(!engine.observe(log.records[0].clone()));
        assert_eq!(engine.stats().observed, 0);
    }

    #[test]
    fn dropping_the_engine_resolves_stranded_tickets_with_an_error() {
        let log = wmp_workloads::tpcc::generate(60, 9).unwrap();
        let model = trained_on(&log, ModelKind::Ridge, 9);
        let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(10));
        let mut tickets: Vec<QueryTicket> =
            log.records[..7].iter().map(|r| engine.submit(r.clone())).collect();
        // Some members of the partial window wait on other threads.
        let waiters: Vec<_> =
            tickets.drain(..3).map(|t| std::thread::spawn(move || t.wait())).collect();
        drop(engine);
        for result in waiters
            .into_iter()
            .map(|w| w.join().unwrap())
            .chain(tickets.iter().map(QueryTicket::wait))
        {
            assert!(
                matches!(result, Err(wmp_mlkit::MlError::EmptyInput(_))),
                "no waiter blocks forever on shutdown: {result:?}"
            );
        }
    }

    #[test]
    fn windows_assigned_at_submit_decide_like_predict_resources() {
        let log = wmp_workloads::tpcc::generate(300, 12).unwrap();
        let model = trained_on(&log, ModelKind::Xgb, 12);
        let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(10));
        let tickets: Vec<QueryTicket> =
            log.records[..30].iter().map(|r| engine.submit(r.clone())).collect();
        let snapshot = engine.handle().snapshot();
        for (w, members) in log.records[..30].chunks(10).enumerate() {
            let refs: Vec<&QueryRecord> = members.iter().collect();
            let expected = snapshot.predict_resources(&refs).unwrap();
            for t in &tickets[w * 10..(w + 1) * 10] {
                let d = t.wait().unwrap();
                assert_eq!(d.window_id, w as u64);
                assert_eq!(
                    d.predicted.as_array().map(f64::to_bits),
                    expected.as_array().map(f64::to_bits)
                );
            }
        }
    }

    #[test]
    fn a_swap_mid_window_decides_with_the_closing_model() {
        let log = wmp_workloads::tpcc::generate(300, 13).unwrap();
        let before = trained_on(&log, ModelKind::Xgb, 13);
        // A different template count too: ids assigned by `before` would
        // not even index the replacement's histogram correctly.
        let after = LearnedWmp::builder()
            .model(ModelKind::Rf)
            .templates(TemplateSpec::PlanKMeans { k: 9, seed: 14 })
            .fit(&log)
            .unwrap();
        let refs: Vec<&QueryRecord> = log.records[..10].iter().collect();
        let by_before = before.predict_resources(&refs).unwrap();
        let by_after = after.predict_resources(&refs).unwrap();
        assert_ne!(by_before, by_after);

        let engine = Engine::new(PredictorHandle::new(before), WindowPolicy::Count(10));
        let mut tickets: Vec<QueryTicket> =
            log.records[..5].iter().map(|r| engine.submit(r.clone())).collect();
        assert_eq!(engine.install(after), 1);
        tickets.extend(log.records[5..10].iter().map(|r| engine.submit(r.clone())));
        for t in &tickets {
            let d = t.wait().unwrap();
            assert_eq!(d.model_version, 1);
            assert_eq!(
                d.predicted.as_array().map(f64::to_bits),
                by_after.as_array().map(f64::to_bits)
            );
        }
    }

    #[test]
    fn families_without_templates_decide_from_the_records() {
        let log = wmp_workloads::tpcc::generate(120, 15).unwrap();
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        let single = learnedwmp_core::SingleWmp::train(ModelKind::Ridge, &refs).unwrap();
        let expected = single.predict_resources(&refs[..10]).unwrap();
        let engine = Engine::new(PredictorHandle::new(single), WindowPolicy::Count(10));
        let tickets: Vec<QueryTicket> =
            log.records[..10].iter().map(|r| engine.submit(r.clone())).collect();
        assert_eq!(tickets[0].wait().unwrap().predicted, expected);
    }

    #[test]
    fn non_finite_features_fail_their_window_with_a_typed_error() {
        let log = wmp_workloads::tpcc::generate(200, 16).unwrap();
        let model = trained_on(&log, ModelKind::Xgb, 16);
        let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(10));
        let mut bad = log.records[3].clone();
        bad.features[2] = f64::NAN;
        let mut window: Vec<QueryRecord> = log.records[..10].to_vec();
        window[3] = bad;
        let tickets: Vec<QueryTicket> = window.into_iter().map(|r| engine.submit(r)).collect();
        for t in &tickets {
            assert_eq!(
                t.wait().unwrap_err(),
                wmp_mlkit::MlError::NonFinite { what: "query plan features", index: 2 }
            );
        }
        let stats = engine.stats();
        assert_eq!((stats.failed, stats.served), (10, 0));
        // The next window is unaffected.
        let next: Vec<QueryTicket> =
            log.records[10..20].iter().map(|r| engine.submit(r.clone())).collect();
        assert!(next[0].wait().is_ok());
        assert_eq!(engine.stats().served, 10);
    }

    #[test]
    fn observability_publishes_serving_metrics_and_quality() {
        let log = wmp_workloads::tpcc::generate(300, 11).unwrap();
        let model = trained_on(&log, ModelKind::Ridge, 11);
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        let reference = model.template_distribution(&refs).unwrap();

        let config = ObsConfig::default().with_drift_reference(reference);
        let registry = std::sync::Arc::clone(&config.registry);
        let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(10))
            .with_observability(config);

        for r in &log.records[..40] {
            let _ = engine.submit(r.clone());
        }
        // No retrainer attached: observe still feeds quality + drift.
        for r in &log.records[..40] {
            assert!(!engine.observe(r.clone()));
        }

        let snap = registry.snapshot();
        let get = |name: &str| snap.get(name, &[]).cloned().unwrap_or_else(|| panic!("{name}"));
        assert!(matches!(get("wmp_queries_submitted_total"), wmp_obs::MetricValue::Counter(40)));
        assert!(matches!(get("wmp_queries_served_total"), wmp_obs::MetricValue::Counter(40)));
        assert!(matches!(get("wmp_windows_scored_total"), wmp_obs::MetricValue::Counter(4)));
        assert!(matches!(get("wmp_queries_observed_total"), wmp_obs::MetricValue::Counter(40)));
        assert!(
            matches!(get("wmp_quality_windows_total"), wmp_obs::MetricValue::Counter(4)),
            "40 observations / quality_batch 10"
        );
        match get("wmp_window_score_latency_us") {
            wmp_obs::MetricValue::Histogram(h) => assert_eq!(h.count, 4),
            other => panic!("latency should be a histogram, got {other:?}"),
        }
        match get("wmp_prediction_mae_mb") {
            wmp_obs::MetricValue::Gauge(mae) => assert!(mae.is_finite() && mae >= 0.0),
            other => panic!("mae should be a gauge, got {other:?}"),
        }
        match get("wmp_template_drift_score") {
            // 40 live assignments from the training log itself: low drift.
            wmp_obs::MetricValue::Gauge(score) => {
                assert!((0.0..=1.0).contains(&score), "drift in [0,1], got {score}")
            }
            other => panic!("drift should be a gauge, got {other:?}"),
        }
        let text = snap.to_prometheus();
        assert!(text.contains("wmp_queries_submitted_total 40"));
        assert!(text.contains("wmp_window_score_latency_us_count 4"));
    }

    #[test]
    fn stats_stay_coherent_under_concurrent_load() {
        let log = wmp_workloads::tpcc::generate(400, 13).unwrap();
        let model = trained_on(&log, ModelKind::Ridge, 13);
        let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(7));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let engine = &engine;
                let records = &log.records;
                scope.spawn(move || {
                    for r in records[t * 100..(t + 1) * 100].iter() {
                        let _ = engine.submit(r.clone());
                    }
                });
            }
            // Reader thread: the invariant must hold mid-flight, on every
            // single snapshot, while submissions and scoring race.
            let engine = &engine;
            scope.spawn(move || {
                for _ in 0..2_000 {
                    let snap = engine.stats();
                    assert!(
                        snap.submitted >= snap.resolved() + snap.pending,
                        "coherence violated mid-flight: {snap:?}"
                    );
                }
            });
        });
        engine.drain();
        let snap = engine.stats();
        assert_eq!(snap.submitted, 400);
        assert_eq!(snap.resolved(), 400);
        assert_eq!(snap.pending, 0);
    }

    #[test]
    fn window_policy_count_zero_degrades_to_one() {
        let log = wmp_workloads::tpcc::generate(60, 10).unwrap();
        let model = trained_on(&log, ModelKind::Ridge, 10);
        let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(0));
        let t = engine.submit(log.records[0].clone());
        assert_eq!(t.wait().unwrap().window_len, 1);
    }

    #[test]
    fn submit_sql_serves_a_text_log_end_to_end() {
        let log = wmp_workloads::tpch::generate(220, 5).unwrap();
        let model = trained_on(&log, ModelKind::Ridge, 5);
        let catalog = wmp_workloads::tpch::catalog();
        let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(5))
            .with_observability(ObsConfig::default())
            .with_sql_frontend(SqlFrontend::new(catalog, Box::new(wmp_sql::Ansi)));

        // Replay the first window's queries as rendered SQL text.
        let mut tickets = Vec::new();
        for record in log.records.iter().take(5) {
            tickets.push(engine.submit_sql(&record.sql()).expect("generated SQL re-parses"));
        }
        let decision = tickets[0].wait().unwrap();
        assert_eq!(decision.window_len, 5);
        assert!(decision.predicted_mb() > 0.0);
        assert!(tickets.iter().all(|t| t.is_resolved()));

        // A malformed statement is rejected with a typed error, not a panic,
        // and does not enter the pending window.
        let err = engine.submit_sql("DELETE FROM lineitem").unwrap_err();
        assert_eq!(err.kind(), "unexpected_token");
        assert_eq!(engine.pending_len(), 0);

        let front = engine.sql_frontend().expect("front-end attached");
        assert_eq!(front.parse_ok(), 5);
        assert_eq!(front.parse_errors(), 1);
        let snap = engine.obs_registry().unwrap().snapshot();
        let text = snap.to_prometheus();
        assert!(text.contains("wmp_sql_parse_ok_total 5"));
        assert!(text.contains("wmp_sql_parse_errors_total 1"));
    }

    #[test]
    fn submit_sql_without_a_frontend_is_a_typed_error() {
        let log = wmp_workloads::tpcc::generate(60, 11).unwrap();
        let model = trained_on(&log, ModelKind::Ridge, 11);
        let engine = Engine::new(PredictorHandle::new(model), WindowPolicy::Count(5));
        let err = engine.submit_sql("SELECT l.* FROM lineitem l").unwrap_err();
        assert_eq!(err.kind(), "unsupported");
        assert_eq!(engine.stats().submitted, 0, "nothing was enqueued");
    }
}
