//! The [`Engine`] facade: an always-on serving loop that turns an unbounded
//! query stream into fixed-size workload windows, scores each window through
//! a hot-swappable [`PredictorHandle`], and retrains in the background.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use learnedwmp_core::handle::PredictorHandle;
use learnedwmp_core::{LearnedWmp, OnlineWmp, WorkloadPredictor};
use wmp_mlkit::{MlError, MlResult};
use wmp_obs::Level;
use wmp_plan::Catalog;
use wmp_workloads::QueryRecord;

use crate::obs::{EngineObs, ObsConfig};
use crate::sqlfront::SqlFrontend;
use crate::stats::{EngineStats, StatsSnapshot};
use crate::ticket::{QueryTicket, TicketState, WorkloadDecision};

/// How the engine slices the submission stream into workloads (the paper's
/// §II workload definition, applied at serving time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowPolicy {
    /// Score a window as soon as `s` queries have accumulated — the serving
    /// mirror of the paper's fixed-size workloads (TR4/IN1, `s = 10` in the
    /// evaluation). A value of 0 is treated as 1.
    Count(usize),
    /// Accumulate indefinitely; windows are scored only by explicit
    /// [`Engine::drain`] calls — the variable-length-workload extension
    /// (§I), where the caller decides the window boundary (e.g. an
    /// admission tick).
    Drain,
}

/// The open window: its members, the template `submit` assigned each, and
/// the one state all of its tickets share.
struct Window {
    records: Vec<QueryRecord>,
    /// Per record, the model version and template id `submit` assigned it
    /// (`None` when the model has no templates or the assignment failed).
    assigned: Vec<Option<(u64, usize)>>,
    state: Arc<TicketState>,
}

impl Window {
    fn open(capacity: usize) -> Self {
        Window {
            records: Vec::with_capacity(capacity),
            assigned: Vec::with_capacity(capacity),
            state: TicketState::new(),
        }
    }
}

struct Retrainer {
    tx: Option<mpsc::Sender<QueryRecord>>,
    join: Option<JoinHandle<()>>,
}

impl Drop for Retrainer {
    fn drop(&mut self) {
        // Closing the channel ends the background loop; join so no
        // retraining outlives the engine.
        self.tx.take();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// A thread-safe serving engine.
///
/// Lifecycle: **submit → window → predict → observe → swap**.
///
/// - [`Engine::submit`] assigns the arriving query to its template on the
///   caller's thread, through the model serving at that moment, then
///   enqueues it with the assignment and returns a [`QueryTicket`]
///   immediately.
/// - Once the [`WindowPolicy`] closes a window, the engine pins the current
///   model ([`PredictorHandle::snapshot`]) and predicts the window's
///   collective demand. When that model assigned every member, only its
///   histogram and regressor run
///   ([`WorkloadPredictor::predict_assigned`]); after a swap between the
///   window's submits and its close (or for a family without templates) it
///   scores the records whole ([`WorkloadPredictor::predict_resources`]).
///   Either way the decision equals the pinned model's `predict_resources`
///   on the members. All tickets of the window share one state, resolved
///   once with the window's [`WorkloadDecision`].
/// - [`Engine::observe`] feeds executed queries (with their measured true
///   memory) to a background [`OnlineWmp`] retrainer; when a retraining
///   pass completes, the new model is published through the handle without
///   blocking in-flight predictions.
/// - [`Engine::reload`] installs a persisted artifact the same way.
///
/// All methods take `&self`: one `Engine` (or one `Arc<Engine>`) is shared
/// across every request thread.
pub struct Engine {
    handle: PredictorHandle,
    policy: WindowPolicy,
    /// The window being filled (`None` until a submit opens one).
    pending: Mutex<Option<Window>>,
    window_seq: AtomicU64,
    query_seq: AtomicU64,
    stats: Arc<EngineStats>,
    obs: Option<Arc<EngineObs>>,
    sql: Option<SqlFrontend>,
    retrainer: Option<Retrainer>,
}

impl Engine {
    /// Creates an engine serving through `handle` (no background
    /// retraining; attach it with [`Engine::with_retraining`]).
    pub fn new(handle: PredictorHandle, policy: WindowPolicy) -> Self {
        Engine {
            handle,
            policy,
            pending: Mutex::new(None),
            window_seq: AtomicU64::new(0),
            query_seq: AtomicU64::new(0),
            stats: Arc::new(EngineStats::default()),
            obs: None,
            sql: None,
            retrainer: None,
        }
    }

    /// Attaches a SQL ingestion front-end so queries can arrive as text via
    /// [`Engine::submit_sql`] instead of pre-built [`QueryRecord`]s.
    pub fn with_sql_frontend(mut self, frontend: SqlFrontend) -> Self {
        self.sql = Some(frontend);
        self
    }

    /// Attaches registry-backed observability (see [`ObsConfig`]): serving
    /// counters, the window-scoring latency histogram, model version/age
    /// gauges, rolling prediction quality, and (when a drift reference is
    /// configured) the template-drift score all publish into
    /// `config.registry` from this call on.
    ///
    /// Call this **before** [`Engine::with_retraining`] — the retraining
    /// thread captures the observability handles when it starts, so a later
    /// attachment is invisible to it.
    pub fn with_observability(mut self, config: ObsConfig) -> Self {
        self.obs = Some(Arc::new(EngineObs::new(config)));
        self
    }

    /// Attaches a background retraining loop: records passed to
    /// [`Engine::observe`] stream into `online` on a dedicated thread, and
    /// every completed retraining pass publishes the new model through this
    /// engine's handle (a codec round-trip snapshot, so the published model
    /// predicts bit-identically to the retrainer's). Warm-start `online`
    /// first if predictions should flow before the first pass.
    pub fn with_retraining(mut self, online: OnlineWmp, catalog: Catalog) -> Self {
        let (tx, rx) = mpsc::channel::<QueryRecord>();
        let handle = self.handle.clone();
        let stats = Arc::clone(&self.stats);
        let obs = self.obs.clone();
        let join = std::thread::spawn(move || {
            let mut online = online;
            while let Ok(record) = rx.recv() {
                match online.observe(record, &catalog) {
                    Ok(outcome) if outcome.retrained() => {
                        // The codec round trip is bit-exact, so the
                        // published copy predicts identically to the
                        // retrainer's private model while sharing no
                        // mutable state with readers.
                        let published = online
                            .model()
                            .ok_or(MlError::NotFitted("OnlineWmp after retrain"))
                            .and_then(LearnedWmp::codec_clone);
                        match published {
                            Ok(model) => {
                                let outcome = handle.swap(model);
                                // ordering: Relaxed — advisory counters; the
                                // model swap itself synchronizes via the
                                // handle's lock.
                                stats.swaps.fetch_add(1, Ordering::Relaxed);
                                // ordering: Relaxed — advisory counter.
                                stats.retrains.fetch_add(1, Ordering::Relaxed);
                                if let Some(obs) = &obs {
                                    obs.swaps.inc();
                                    obs.retrains.inc();
                                }
                                wmp_obs::event!(
                                    Level::Info,
                                    target: "wmp_serve::engine",
                                    "retrain_published",
                                    version = outcome.version,
                                    passes = online.retrain_count(),
                                );
                            }
                            Err(e) => {
                                // ordering: Relaxed — advisory failure count.
                                stats.retrain_failures.fetch_add(1, Ordering::Relaxed);
                                if let Some(obs) = &obs {
                                    obs.retrain_failures.inc();
                                }
                                wmp_obs::event!(
                                    Level::Warn,
                                    target: "wmp_serve::engine",
                                    "retrain_publish_failed",
                                    error = e.to_string(),
                                );
                            }
                        }
                    }
                    Ok(_) => {}
                    Err(e) => {
                        // ordering: Relaxed — advisory failure count.
                        stats.retrain_failures.fetch_add(1, Ordering::Relaxed);
                        if let Some(obs) = &obs {
                            obs.retrain_failures.inc();
                        }
                        wmp_obs::event!(
                            Level::Warn,
                            target: "wmp_serve::engine",
                            "retrain_failed",
                            error = e.to_string(),
                        );
                    }
                }
            }
        });
        self.retrainer = Some(Retrainer { tx: Some(tx), join: Some(join) });
        self
    }

    /// Submits one arriving query. Assigns its template on the calling
    /// thread, then returns with a ticket that resolves when the query's
    /// window is scored. If this submission closes a [`WindowPolicy::Count`]
    /// window, the window is scored on the calling thread before returning
    /// (so the returned ticket is already resolved).
    pub fn submit(&self, record: QueryRecord) -> QueryTicket {
        // ordering: Relaxed — ticket sequence numbers only need uniqueness,
        // not ordering against any other memory.
        let seq = self.query_seq.fetch_add(1, Ordering::Relaxed);
        // `submitted` increments before the query enters the pending window
        // — rule 1 of the stats coherence contract (see `crate::stats`).
        // ordering: Relaxed — the Acquire snapshot reads pair with the
        // Release resolution counters; `submitted` only has to be counted
        // before the pending-lock release orders it for window scorers.
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.submitted.inc();
        }
        // Assign before taking the pending lock, so the call that closes the
        // window has only the histogram and regressor left. A failed
        // assignment is not an error yet: the closing call scores the
        // records whole and reports it for the window.
        let snapshot = self.handle.snapshot();
        let assigned = match snapshot.assign_template(&record) {
            Ok(Some(template)) => Some((snapshot.version(), template)),
            Ok(None) | Err(_) => None,
        };
        drop(snapshot);
        let capacity = match self.policy {
            WindowPolicy::Count(s) => s.max(1),
            WindowPolicy::Drain => 0,
        };

        let (state, closed, pending_len) = {
            let mut pending =
                self.pending.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let window = pending.get_or_insert_with(|| Window::open(capacity));
            window.records.push(record);
            window.assigned.push(assigned);
            let state = Arc::clone(&window.state);
            let len = window.records.len();
            match self.policy {
                WindowPolicy::Count(s) if len >= s.max(1) => (state, pending.take(), 0),
                _ => (state, None, len),
            }
        };
        let ticket = QueryTicket { seq, state };
        if let Some(obs) = &self.obs {
            obs.pending.set(pending_len as f64);
        }
        if let Some(window) = closed {
            self.score_window(window);
        }
        ticket
    }

    /// Submits one query as SQL text: parses it under the attached
    /// front-end's dialect, lowers it against the catalog, prices it, and
    /// enqueues the result exactly like [`Engine::submit`].
    ///
    /// # Errors
    /// A span-carrying [`wmp_sql::ParseError`] when the statement is
    /// rejected (malformed, unsupported construct, unknown identifier), or
    /// a zero-span `Unsupported` error when no front-end is attached (see
    /// [`Engine::with_sql_frontend`]). Rejected statements never panic and
    /// never enter a window; parse outcomes are counted on the front-end
    /// and, when observability is attached, as `wmp_sql_parse_ok_total` /
    /// `wmp_sql_parse_errors_total`.
    pub fn submit_sql(&self, sql: &str) -> Result<QueryTicket, wmp_sql::ParseError> {
        let Some(frontend) = &self.sql else {
            return Err(wmp_sql::ParseError::Unsupported {
                what: "submit_sql without a SQL front-end (attach with with_sql_frontend)",
                span: wmp_sql::Span::at(0),
            });
        };
        let span = wmp_obs::span!(
            Level::Debug,
            target: "wmp_serve::sql",
            "sql_parse",
            dialect = frontend.dialect().name(),
            bytes = sql.len(),
        );
        let record = frontend.record(sql);
        drop(span);
        match record {
            Ok(record) => {
                if let Some(obs) = &self.obs {
                    obs.sql_parse_ok.inc();
                }
                Ok(self.submit(record))
            }
            Err(e) => {
                if let Some(obs) = &self.obs {
                    obs.sql_parse_errors.inc();
                }
                wmp_obs::event!(
                    Level::Warn,
                    target: "wmp_serve::sql",
                    "sql_parse_rejected",
                    kind = e.kind(),
                    error = e.to_string(),
                );
                Err(e)
            }
        }
    }

    /// The attached SQL front-end (for its parse counters), or `None` when
    /// the engine only accepts pre-built records.
    pub fn sql_frontend(&self) -> Option<&SqlFrontend> {
        self.sql.as_ref()
    }

    /// Flushes the current partial window (any policy), scoring whatever has
    /// accumulated. Returns the number of tickets resolved (0 when nothing
    /// was pending).
    pub fn drain(&self) -> usize {
        let window = self.pending.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take();
        if let Some(obs) = &self.obs {
            obs.pending.set(0.0);
        }
        let Some(window) = window else { return 0 };
        let n = window.records.len();
        self.score_window(window);
        n
    }

    /// Queries waiting for their window to close.
    pub fn pending_len(&self) -> usize {
        let pending = self.pending.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        pending.as_ref().map_or(0, |w| w.records.len())
    }

    fn score_window(&self, window: Window) {
        // ordering: Relaxed — window ids need uniqueness only.
        let window_id = self.window_seq.fetch_add(1, Ordering::Relaxed);
        let span = wmp_obs::span!(
            Level::Debug,
            target: "wmp_serve::engine",
            "score_window",
            window_id = window_id,
            window_len = window.records.len(),
        );
        let t0 = Instant::now();
        let snapshot = self.handle.snapshot();
        let version = snapshot.version();
        let templates: Option<Vec<usize>> = window
            .assigned
            .iter()
            .map(|a| a.and_then(|(v, template)| (v == version).then_some(template)))
            .collect();
        let result = match templates.and_then(|t| snapshot.predict_assigned(&t)) {
            Some(result) => result,
            // A swap since some member's submit, a family without templates,
            // or a failed assignment: the records go through the pinned
            // model whole.
            None => {
                let refs: Vec<&QueryRecord> = window.records.iter().collect();
                snapshot.predict_resources(&refs)
            }
        };
        let elapsed = t0.elapsed();
        self.stats.latency.record_duration(elapsed);
        // ordering: Relaxed — advisory window count.
        self.stats.windows.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.score_latency.record_duration(elapsed);
            obs.windows.inc();
            obs.model_version.set(snapshot.version() as f64);
            obs.model_age_seconds.set(snapshot.age().as_secs_f64());
        }
        let n = window.records.len() as u64;
        // `Release` on the resolution counters pairs with the snapshot's
        // `Acquire` loads — rule 2 of the stats coherence contract: the
        // window left `pending` (the caller took it under the lock) before
        // these increments become visible.
        let resolution = match result {
            Ok(predicted) => {
                // ordering: Release — pairs with EngineStats::snapshot's
                // Acquire loads (rule 2, see the comment block above).
                self.stats.served.fetch_add(n, Ordering::Release);
                if let Some(obs) = &self.obs {
                    obs.served.add(n);
                }
                Ok(WorkloadDecision {
                    window_id,
                    predicted,
                    window_len: window.records.len(),
                    model_version: snapshot.version(),
                })
            }
            Err(e) => {
                // ordering: Release — same pairing as `served` above.
                self.stats.failed.fetch_add(n, Ordering::Release);
                if let Some(obs) = &self.obs {
                    obs.failed.add(n);
                }
                wmp_obs::event!(
                    Level::Warn,
                    target: "wmp_serve::engine",
                    "window_score_failed",
                    window_id = window_id,
                    error = e.to_string(),
                );
                Err(e)
            }
        };
        window.state.resolve(resolution);
        drop(span);
    }

    /// Streams one executed query (with its measured memory) to the
    /// background retrainer, and feeds the observability monitors
    /// (prediction quality, template drift) when attached. Returns `false`
    /// — and drops the record for retraining purposes — when no retrainer
    /// is attached or its thread has stopped; quality/drift accounting
    /// still happens in that case, so monitoring works on engines that
    /// retrain by explicit [`Engine::reload`]/[`Engine::install`] instead.
    pub fn observe(&self, record: QueryRecord) -> bool {
        // Account before forwarding: the record is moved into the channel.
        if let Some(obs) = &self.obs {
            obs.observed.inc();
            obs.account_observation(self.handle.snapshot().model(), &record);
        }
        let Some(retrainer) = &self.retrainer else { return false };
        let Some(tx) = &retrainer.tx else { return false };
        if tx.send(record).is_ok() {
            // ordering: Relaxed — advisory count; the channel send is the
            // synchronizing operation.
            self.stats.observed.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Loads a persisted model artifact (see [`LearnedWmp::load_from`]) and
    /// installs it as the serving model; readers switch on their next
    /// snapshot without ever blocking. Returns the new model version.
    ///
    /// # Errors
    /// Propagates artifact open/validation errors; on error the previous
    /// model keeps serving.
    pub fn reload(&self, path: impl AsRef<std::path::Path>) -> MlResult<u64> {
        let model = LearnedWmp::load_from(path)?;
        Ok(self.install(model))
    }

    /// Installs an in-process model as the serving model (the non-file
    /// counterpart of [`Engine::reload`]). Returns the version this
    /// installation published (race-free even if a background retrain
    /// swaps concurrently).
    pub fn install(&self, model: impl WorkloadPredictor + 'static) -> u64 {
        let outcome = self.handle.swap(model);
        // ordering: Relaxed — advisory counter; the swap's lock publishes
        // the model itself.
        self.stats.swaps.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.swaps.inc();
        }
        wmp_obs::event!(
            Level::Info,
            target: "wmp_serve::engine",
            "model_install",
            version = outcome.version,
        );
        outcome.version
    }

    /// The shared predictor handle (clone it to serve the same model
    /// elsewhere, or to swap models from outside the engine).
    pub fn handle(&self) -> &PredictorHandle {
        &self.handle
    }

    /// Predicts the joint resource demand of `queries` through the
    /// currently serving model, synchronously. A side-channel read for
    /// consumers that already hold a whole workload — e.g. a scheduler
    /// replaying arrival chunks — so it bypasses the window machinery
    /// entirely: nothing enters a pending window, no ticket is issued, and
    /// the engine's submit/serve counters are untouched. The model version
    /// used is whatever [`Engine::handle`] serves at call time.
    ///
    /// # Errors
    /// Propagates the model's prediction error (e.g. feature-arity
    /// mismatch); the serving state is unaffected either way.
    pub fn predict_now(&self, queries: &[&QueryRecord]) -> MlResult<wmp_plan::ResourceVector> {
        self.handle.snapshot().model().predict_resources(queries)
    }

    /// Point-in-time serving telemetry. The snapshot satisfies
    /// `submitted >= served + failed + pending` even while submissions and
    /// scoring race with this call — see the coherence contract in
    /// [`crate::stats`].
    pub fn stats(&self) -> StatsSnapshot {
        let snap = self.stats.snapshot_with_pending(|| self.pending_len() as u64);
        debug_assert!(
            snap.submitted >= snap.resolved() + snap.pending,
            "stats coherence violated: submitted {} < resolved {} + pending {}",
            snap.submitted,
            snap.resolved(),
            snap.pending,
        );
        snap
    }

    /// The observability registry attached via [`Engine::with_observability`]
    /// (`None` when observability is not attached) — the handle to render
    /// [`wmp_obs::Snapshot::to_prometheus`] /
    /// [`wmp_obs::Snapshot::to_json`] expositions from.
    pub fn obs_registry(&self) -> Option<&Arc<wmp_obs::Registry>> {
        self.obs.as_ref().map(|obs| &obs.registry)
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Never strand a waiter: resolve any un-scored tickets with a typed
        // error instead of leaving them blocked forever.
        let window = self.pending.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take();
        if let Some(window) = window {
            window.state.resolve(Err(MlError::EmptyInput(
                "Engine dropped with a partial window (call drain() before shutdown)",
            )));
        }
    }
}
