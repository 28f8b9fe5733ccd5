//! Result plumbing: latency samples and their summaries, a small JSON value
//! type for the printed report, and the facts about the host a result
//! needs to be comparable with another.

use std::fmt::Write as _;
use std::time::Duration;

/// A JSON value, printed with every digit of its numbers.
#[derive(Debug, Clone)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Non-finite numbers have no JSON spelling; `null` keeps the
            // line parseable and makes the hole visible.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The share of a run's slices its figures come from: the calmest
/// twentieth (see [`Samples::calm_quantile_ns`] and `Rates::qps`). The
/// cores this benchmark runs on may be shared, and a neighbour's load comes
/// and goes within seconds and can fill most of a run, so a run's calmest
/// slices reflect the program while its median slice reflects the
/// neighbour.
pub const CALM: f64 = 0.05;

/// Wall-time samples of one kind of call, in nanoseconds, in slices of
/// the run.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    /// Where each slice after the first starts.
    slice_starts: Vec<usize>,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ns.push(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Ends the current slice.
    pub fn end_slice(&mut self) {
        if self.slice_starts.last().copied().unwrap_or(0) < self.ns.len() {
            self.slice_starts.push(self.ns.len());
        }
    }

    /// Quantile `q` of the run's calm slices pooled: the slices with the
    /// lowest quantile `q` of their own, the `share` of them, and more if
    /// needed to pool at least `min` samples. A slice's own p99 ranks it
    /// well from 1,000 samples; in a short slice, where it is about the
    /// slowest call, it still tells whether other load touched the slice.
    pub fn calm_quantile_ns(&self, q: f64, share: f64, min: usize) -> f64 {
        let mut bounds = vec![0];
        bounds.extend(self.slice_starts.iter().copied());
        bounds.push(self.ns.len());
        let mut slices: Vec<(f64, &[u64])> = bounds
            .windows(2)
            .filter(|b| b[1] > b[0])
            .map(|b| {
                let mut sorted = self.ns[b[0]..b[1]].to_vec();
                sorted.sort_unstable();
                (quantile(&sorted, q), &self.ns[b[0]..b[1]])
            })
            .collect();
        slices.sort_by(|a, b| a.0.total_cmp(&b.0));
        let want = ((slices.len() as f64 * share).ceil() as usize).max(1);
        let mut pool = Vec::new();
        for (i, (_, slice)) in slices.iter().enumerate() {
            if i >= want && pool.len() >= min {
                break;
            }
            pool.extend_from_slice(slice);
        }
        pool.sort_unstable();
        quantile(&pool, q)
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Median plus the highest of p90/p99/p99.9 that still has at least
    /// ten samples beyond it (none below 100 samples), with the count.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.ns)
    }

    /// The quantile `q` (0..=1) by linear interpolation between ranks.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        quantile(&sorted, q)
    }
}

/// The fastest wall time seen for each of a fixed set of inputs, each timed
/// again and again. A neighbour's load on a shared core slows some repeats
/// of an input but rarely all of them, so quantiles over the inputs' best
/// times follow the program, the costliest inputs included, and not the
/// neighbour.
#[derive(Debug, Clone)]
pub struct BestOf {
    ns: Vec<u64>,
}

impl BestOf {
    pub fn new(inputs: usize) -> Self {
        BestOf { ns: vec![u64::MAX; inputs] }
    }

    pub fn push(&mut self, input: usize, d: Duration) {
        let ns = d.as_nanos().min(u128::from(u64::MAX - 1)) as u64;
        if let Some(best) = self.ns.get_mut(input) {
            *best = (*best).min(ns);
        }
    }

    /// Whether every input was timed at least once.
    pub fn complete(&self) -> bool {
        !self.ns.is_empty() && self.ns.iter().all(|&ns| ns < u64::MAX)
    }

    pub fn inputs(&self) -> usize {
        self.ns.len()
    }

    /// The quantile `q` (0..=1) over the inputs' best times.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        quantile(&sorted, q)
    }

    /// The sum of the inputs' best times.
    pub fn total_ns(&self) -> f64 {
        self.ns.iter().map(|&ns| ns as f64).sum()
    }

    /// [`Samples::summary`] over the inputs' best times.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.ns)
    }
}

fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// A timing's median and supported tail percentile.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub count: usize,
    pub median_ns: f64,
    /// `(percentile, value_ns)`, absent below 100 samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    fn of(ns: &[u64]) -> Summary {
        let mut sorted = ns.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let tail = [(99.9, 10_000), (99.0, 1_000), (90.0, 100)]
            .into_iter()
            .find(|&(_, min)| n >= min)
            .map(|(p, _)| (p, quantile(&sorted, p / 100.0)));
        Summary { count: n, median_ns: quantile(&sorted, 0.5), tail }
    }

    pub fn to_json(self) -> Json {
        let mut fields = vec![
            ("count".to_string(), Json::Num(self.count as f64)),
            ("median_ns".to_string(), Json::Num(self.median_ns)),
        ];
        if let Some((p, v)) = self.tail {
            fields.push((format!("p{p}_ns"), Json::Num(v)));
        }
        Json::Obj(fields)
    }
}

/// Operations attempted and failed in one phase of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, passed: bool) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn to_json(self) -> Json {
        Json::obj([
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
        ])
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The facts that make two results comparable: code, toolchain, hardware.
pub fn host_facts(seed: u64) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        ("commit", Json::str(commit())),
        ("cores", Json::Num(cores as f64)),
        ("cpu_model", Json::str(cpu)),
        (
            "rustc",
            Json::str(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("seed", Json::Num(seed as f64)),
    ])
}

/// The commit under test: `BENCH_COMMIT` when set (a checkout exported
/// without its git metadata), else `git rev-parse`, else "unknown".
fn commit() -> String {
    std::env::var("BENCH_COMMIT")
        .ok()
        .filter(|c| !c.is_empty())
        .or_else(|| command_line("git", &["rev-parse", "--short=12", "HEAD"]))
        .unwrap_or_else(|| "unknown".to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !text.is_empty()).then_some(text)
}
