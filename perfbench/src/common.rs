//! Pieces every workload shares: the run settings, the result a run returns,
//! model training, the scheduling set-up, and the checks on a window's
//! decision.

use std::time::{Duration, Instant};

use learnedwmp_core::{LearnedWmp, ModelKind, TemplateSpec};
use wmp_plan::{Catalog, ResourceVector};
use wmp_sched::{
    replay, CostModel, DemandSource, PlacementPolicy, PredictionAware, ReplayConfig, Scheduler,
    SlaClass,
};
use wmp_serve::Engine;
use wmp_sim::Cluster;
use wmp_workloads::{ArrivalProcess, QueryLog, QueryRecord};

use crate::report::{Json, Samples, Tally, CALM};

/// Queries per workload window, the paper's `s` (`WindowPolicy::Count(10)`).
pub const WINDOW: usize = 10;

/// Closing calls per latency slice where calls come one at a time: enough
/// for a slice's own p99, few enough that calm slices can be told from
/// those that met other load.
pub const DECISION_SLICE: usize = 1_000;

/// Set-up is repeated this many times and its median reported, so one slow
/// set-up cannot move `setup_s`.
pub const SETUP_REPEATS: usize = 3;

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    /// `(name, value, unit, samples behind the value)` in print order.
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed, per phase.
    pub phases: Vec<(&'static str, Tally)>,
    /// Timing summaries with their sample counts, and other run facts.
    pub details: Vec<(String, Json)>,
    /// Spans of a traced run, written out when `--out` is given.
    pub spans: Option<crate::trace::Tracer>,
}

/// `(name, value, unit, samples behind the value)`.
pub type Metric = (&'static str, f64, &'static str, u64);

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push((name, value, unit, samples));
    }

    pub fn phase(&mut self, name: &'static str, tally: Tally) {
        self.phases.push((name, tally));
    }

    pub fn detail(&mut self, name: impl Into<String>, value: Json) {
        self.details.push((name.into(), value));
    }

    /// `qps` from slice rates, with their spread in the details.
    pub fn qps_metric(&mut self, rates: &Rates) {
        self.metric("qps", rates.qps(), "1/s", rates.queries);
        self.detail("qps_slices", rates.to_json());
    }

    /// `decision_p50_us` and `decision_p99_us`: the median and p99 of
    /// closing-call times in the run's calm slices, the [`CALM`] share of
    /// them for the median and `p99_share` for the p99 (3,000 samples at
    /// least). A p99 needs 1,000 samples; a run with fewer fails its check.
    pub fn decision_metrics(&mut self, decisions: &Samples, p99_share: f64, tally: &mut Tally) {
        let n = decisions.len() as u64;
        let p50 = decisions.calm_quantile_ns(0.5, CALM, 100);
        self.metric("decision_p50_us", p50 / 1e3, "us", n);
        tally.check(n >= 1_000);
        let p99 = decisions.calm_quantile_ns(0.99, p99_share, 3_000);
        self.metric("decision_p99_us", p99 / 1e3, "us", n);
        self.detail("decision", decisions.summary().to_json());
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times; returns the last product and the
/// median wall time in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous product first so set-ups do not stack memory.
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    (last.expect("SETUP_REPEATS > 0"), times[times.len() / 2])
}

/// Trains LearnedWMP with plan k-means templates — the paper's pipeline.
pub fn train(kind: ModelKind, k: usize, records: &[&QueryRecord], catalog: &Catalog) -> LearnedWmp {
    LearnedWmp::builder()
        .model(kind)
        .templates(TemplateSpec::PlanKMeans { k, seed: 42 })
        .batch_size(WINDOW)
        .fit_refs(records, catalog)
        .expect("training on generated records succeeds")
}

/// The scheduling set-up of the committed `scheduler_replay` bench: four
/// executors, prediction-aware placement with 10% headroom, two SLA
/// classes, bursty window arrivals.
pub struct SchedSetup {
    pub capacity: ResourceVector,
    /// The first arrival pattern (the one the traced run schedules).
    pub replay: ReplayConfig,
}

/// Arrival patterns `sched_cost` is averaged over. One pattern's cost
/// hinges on how a few bursts line up; the mean over many is a property of
/// the log and the model. The patterns are part of the scenario, like the
/// cluster, so they stay the same for every workload seed.
pub const ARRIVAL_PATTERNS: u64 = 64;

/// Arrival seed of the first pattern: the committed `scheduler_replay`
/// bench's.
const FIRST_ARRIVAL_SEED: u64 = 11;

impl SchedSetup {
    /// 4 executors of 256 MB and 8,000 ms each.
    pub fn reference() -> Self {
        SchedSetup::with_capacity(ResourceVector::new(256.0, 8_000.0, f64::INFINITY))
    }

    /// A cluster as loaded by `records` as the reference cluster is by a
    /// TPC-H log: each executor holds [`WINDOWS_PER_EXECUTOR`] mean windows.
    pub fn scaled_to(records: &[QueryRecord]) -> Self {
        let mean_window: ResourceVector = records
            .iter()
            .map(|r| r.resources)
            .sum::<ResourceVector>()
            .scale(WINDOW as f64 / records.len().max(1) as f64);
        let capacity = ResourceVector::new(
            mean_window.memory_mb * WINDOWS_PER_EXECUTOR,
            mean_window.cpu_ms * WINDOWS_PER_EXECUTOR,
            f64::INFINITY,
        );
        SchedSetup::with_capacity(capacity)
    }

    fn with_capacity(capacity: ResourceVector) -> Self {
        let replay = ReplayConfig {
            window: WINDOW,
            arrivals: ArrivalProcess::Bursty {
                burst_gap_ticks: 120.0,
                idle_gap_ticks: 3_000.0,
                mean_burst_len: 40.0,
            },
            seed: FIRST_ARRIVAL_SEED,
        };
        SchedSetup { capacity, replay }
    }

    /// Arrival pattern `i` of [`ARRIVAL_PATTERNS`]; pattern 0 is `replay`.
    pub fn pattern(&self, i: u64) -> ReplayConfig {
        ReplayConfig { seed: self.replay.seed + i, ..self.replay }
    }

    /// Mean `total_cost` of replaying `log` under every arrival pattern,
    /// deciding through `engine`'s serving model.
    pub fn mean_cost(&self, log: &QueryLog, engine: &Engine, tally: &mut Tally) -> f64 {
        let mut total = 0.0;
        for i in 0..ARRIVAL_PATTERNS {
            match replay(log, DemandSource::Engine(engine), self.scheduler(), &self.pattern(i)) {
                Ok(report) => {
                    tally.check(report.placed() + report.rejected == report.workloads);
                    total += report.total_cost();
                }
                Err(_) => tally.check(false),
            }
        }
        total / ARRIVAL_PATTERNS as f64
    }

    pub fn policy() -> PredictionAware {
        PredictionAware::new(1.1)
    }

    pub fn scheduler(&self) -> Scheduler {
        Scheduler::new(Cluster::uniform(4, self.capacity), Box::new(Self::policy()))
            .with_sla_classes(vec![SlaClass::new(1_000, 10.0), SlaClass::new(4_000, 2.0)])
            .with_cost_model(CostModel { stranded_per_mb_tick: 1e-6 })
    }

    /// Whether a window with predicted demand `decision` can ever be
    /// placed (otherwise the scheduler rejects it).
    pub fn placeable(&self, decision: ResourceVector) -> bool {
        Cluster::uniform(1, self.capacity).could_ever_fit(Self::policy().reserve_demand(decision))
    }
}

/// Mean windows an executor of the reference cluster holds on a TPC-H log:
/// 256 MB over a mean window of about 46 MB, 8,000 ms over about 1,700 ms.
pub const WINDOWS_PER_EXECUTOR: f64 = 5.0;

/// Accumulates the absolute percentage error of window memory predictions.
#[derive(Debug, Default, Clone, Copy)]
pub struct Mape {
    sum: f64,
    n: u64,
}

impl Mape {
    pub fn add(&mut self, predicted_mb: f64, true_mb: f64) {
        if true_mb > 0.0 {
            self.sum += (predicted_mb - true_mb).abs() / true_mb;
            self.n += 1;
        }
    }

    pub fn windows(&self) -> u64 {
        self.n
    }

    pub fn percent(&self) -> f64 {
        100.0 * self.sum / self.n.max(1) as f64
    }
}

/// Throughput measured in slices of a fraction of a second; `qps` is the
/// rate of the run's calm slices (see [`crate::report::CALM`]).
#[derive(Debug, Default)]
pub struct Rates {
    rates: Vec<f64>,
    pub busy_s: f64,
    pub queries: u64,
}

impl Rates {
    pub fn slice(&mut self, queries: u64, seconds: f64) {
        self.rates.push(queries as f64 / seconds);
        self.busy_s += seconds;
        self.queries += queries;
    }

    /// The 95th-percentile slice rate: slices slowed by other load on the
    /// machine fall below it.
    pub fn qps(&self) -> f64 {
        self.rate_quantile(1.0 - CALM)
    }

    fn rate_quantile(&self, q: f64) -> f64 {
        let mut sorted = self.rates.clone();
        sorted.sort_by(f64::total_cmp);
        if sorted.is_empty() {
            return f64::NAN;
        }
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }

    /// Slice count and the 10th, 50th and 90th percentile slice rates.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("slices", Json::Num(self.rates.len() as f64)),
            ("p10_qps", Json::Num(self.rate_quantile(0.1))),
            ("p50_qps", Json::Num(self.rate_quantile(0.5))),
            ("p90_qps", Json::Num(self.rate_quantile(0.9))),
        ])
    }
}

/// One resolved ticket: `(window id, record index, decision)`.
pub type Resolved = (u64, usize, ResourceVector);

/// Bit equality of two resource vectors.
pub fn same_bits(a: ResourceVector, b: ResourceVector) -> bool {
    a.as_array().iter().zip(b.as_array()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// True summed resources of a window.
pub fn window_truth(members: &[&QueryRecord]) -> ResourceVector {
    members.iter().map(|r| r.resources).sum()
}

/// Sleeps briefly while waiting on background work.
pub fn pause() {
    std::thread::sleep(Duration::from_micros(200));
}
