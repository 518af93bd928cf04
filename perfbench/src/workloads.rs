//! The three benchmark workloads, their output checks and their metrics.
//!
//! Every workload is a registry campaign at the quick profile, re-seeded
//! with the benchmark's `--seed`; at the default seed its rows must equal
//! the committed `results/quick/` CSV byte for byte.  Nothing here writes
//! under `results/`: the campaigns run through the simulator's API, never
//! through the registry's `run_entry`.

use crate::{median, quantile, MacStats, TimedMac};
use charisma::metrics::RepsAccumulator;
use charisma::{
    Campaign, CampaignPoint, CampaignRow, CampaignRun, FrameBudget, ProtocolKind, ReplicatedResult,
    RunReport, Scenario, SimConfig, SystemWorld,
};
use charisma_bench::{registry, BenchProfile};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Mutex;
use std::thread::{self, ThreadId};
use std::time::Instant;

/// The registry profile every workload runs at.
pub const PROFILE: BenchProfile = BenchProfile::Quick;

/// Set-up is repeated at least this many times per run...
const SETUP_MIN_REPS: usize = 5;
/// ...and takes this share of the run's host time, interleaved with the
/// passes so that both sample the same stretches of a shared host's load.
const SETUP_SHARE: f64 = 0.05;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 11 campaign on the sweep pool: all six MACs.
    PaperSweep,
    /// The `smoke_10k` population: 10,000 terminals in one cell.
    Crowd10k,
    /// The `city_scale` point: 127 coupled cells on one thread.
    City127,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::PaperSweep, Workload::Crowd10k, Workload::City127];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::Crowd10k => "crowd_10k",
            Workload::City127 => "city_127",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The registry entry the workload's campaign comes from.
    fn entry(self) -> &'static str {
        match self {
            Workload::PaperSweep => "fig11",
            Workload::Crowd10k => "smoke_10k",
            Workload::City127 => "city_scale",
        }
    }

    /// The committed quick-profile CSV the default seed must reproduce.
    fn committed_csv(self) -> PathBuf {
        let file = match self {
            Workload::PaperSweep => "fig11_voice_loss.csv",
            Workload::Crowd10k => "smoke_10k.csv",
            Workload::City127 => "city_scale.csv",
        };
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../results/quick")
            .join(file)
    }

    /// The registry campaign with every spec seeded with `seed`.  `city_127`
    /// runs its 127 cells on one system thread: the coupled frame loop is
    /// what it measures, and one thread keeps that steady.
    pub fn campaign(self, seed: u64) -> Campaign {
        let mut campaign =
            registry::build_campaign(self.entry(), PROFILE).expect("a registered sweep entry");
        for spec in &mut campaign.specs {
            spec.seed = Some(seed);
            if self == Workload::City127 {
                spec.system_threads = 1;
            }
        }
        campaign
    }

    /// The seed the committed CSVs were generated with.
    pub fn default_seed(self) -> u64 {
        registry::build_campaign(self.entry(), PROFILE)
            .expect("a registered sweep entry")
            .specs[0]
            .effective_seed()
    }

    /// The workload's campaign points at the quick budget.
    pub fn points(self, seed: u64) -> Vec<CampaignPoint> {
        self.campaign(seed)
            .expand(PROFILE.budget())
            .expect("registry campaigns expand")
    }
}

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The seed every spec of the campaign runs with.
    pub seed: u64,
    /// How long the timed passes run, in host seconds (at least one pass).
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
}

fn metric(name: impl Into<String>, value: f64) -> Metric {
    Metric {
        name: name.into(),
        value,
    }
}

/// What one run measured and checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Output rows checked (the campaign's points).
    pub attempted: u64,
    /// Rows that failed any check.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Host ns per terminal-frame by layer, for the layer table (traced run
    /// only; `None` where the workload never calls the layer).
    pub layer_row: Vec<(&'static str, Option<f64>)>,
}

/// Runs `workload` as `opts` asks.
pub fn run(workload: Workload, opts: &Options) -> Outcome {
    match workload {
        Workload::PaperSweep => paper_sweep(opts),
        Workload::Crowd10k => crowd_10k(opts),
        Workload::City127 => city_127(opts),
    }
}

// --- checks ---------------------------------------------------------------

/// Output rows that failed a check, by index, with the first reasons.
#[derive(Debug, Default)]
struct Check {
    failed: BTreeSet<usize>,
    reasons: Vec<String>,
}

impl Check {
    fn fail(&mut self, row: usize, why: impl Into<String>) {
        if self.reasons.len() < 16 {
            self.reasons.push(format!("row {row}: {}", why.into()));
        }
        self.failed.insert(row);
    }

    /// Run-end invariants of every row: loss rates in [0, 1] and handoff
    /// successes never above attempts.
    fn invariants(&mut self, rows: &[CampaignRow]) {
        for (i, row) in rows.iter().enumerate() {
            for loss in [row.voice_loss_mean(), row.report.voice_loss_rate()] {
                if !(0.0..=1.0).contains(&loss) {
                    self.fail(i, format!("voice loss {loss} outside [0, 1]"));
                }
            }
            let handoff = &row.report.metrics.handoff;
            if handoff.successes > handoff.attempts {
                self.fail(
                    i,
                    format!(
                        "{} handoff successes > {} attempts",
                        handoff.successes, handoff.attempts
                    ),
                );
            }
        }
    }

    /// Requires `got` to equal `want` row for row.  Rows are compared
    /// through their `Debug` rendering, which prints every float exactly,
    /// so the comparison is bit for bit.
    fn same_rows(&mut self, what: &str, want: &[CampaignRow], got: &[CampaignRow]) {
        for i in 0..want.len().max(got.len()) {
            let same = match (want.get(i), got.get(i)) {
                (Some(a), Some(b)) => format!("{a:?}") == format!("{b:?}"),
                _ => false,
            };
            if !same {
                self.fail(i, format!("{what}: reports differ"));
            }
        }
    }

    /// At the seed the baselines were made with, the rows must render to
    /// the committed quick CSV byte for byte.
    fn committed(&mut self, workload: Workload, seed: u64, rows: &[CampaignRow]) {
        if seed != workload.default_seed() {
            return;
        }
        let path = workload.committed_csv();
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                for i in 0..rows.len() {
                    self.fail(i, format!("cannot read {}: {e}", path.display()));
                }
                return;
            }
        };
        let run = CampaignRun {
            campaign: workload.entry().into(),
            rows: rows.to_vec(),
        };
        let mut lines = text.lines();
        let header_ok = lines.next() == Some(CampaignRun::CSV_HEADER);
        let committed: Vec<&str> = lines.collect();
        for (i, row) in run.csv_rows().iter().enumerate() {
            if !header_ok || committed.get(i) != Some(&row.as_str()) {
                self.fail(i, format!("differs from {}", path.display()));
            }
        }
        for i in run.rows.len()..committed.len() {
            self.fail(i, format!("row missing against {}", path.display()));
        }
    }

    fn finish(self, attempted: usize) -> (u64, u64) {
        for reason in &self.reasons {
            eprintln!("check failed: {reason}");
        }
        (attempted as u64, self.failed.len() as u64)
    }
}

// --- running points -------------------------------------------------------

/// Runs one campaign point's replications the way the sweep pool does —
/// replication `r` on the point's `replication_seed(r)`, the same stopping
/// rule — with `run` executing each replication.
fn run_point(
    point: &CampaignPoint,
    run: &mut dyn FnMut(SimConfig, ProtocolKind) -> RunReport,
) -> CampaignRow {
    let policy = point.reps.unwrap_or(PROFILE.replications());
    let mut stats = RepsAccumulator::new();
    let mut first: Option<RunReport> = None;
    let mut rep = 0;
    loop {
        let mut config = point.point.config.clone();
        config.seed = point.point.config.replication_seed(rep);
        let report = run(config, point.point.protocol);
        stats.push(&report.metrics);
        first.get_or_insert(report);
        rep += 1;
        if rep < policy.min_reps {
            continue;
        }
        match policy.target_rel_ci95 {
            None => break,
            Some(target) if rep >= policy.max_reps || stats.within_target(target) => break,
            Some(_) => {}
        }
    }
    let report = first.expect("at least one replication ran");
    CampaignRow {
        scenario: point.scenario.clone(),
        protocol: point.point.protocol,
        request_queue: report.request_queue,
        num_voice: report.num_voice,
        num_data: report.num_data,
        speed_kmh: point.speed_kmh,
        load: point.point.load,
        report,
        stats,
    }
}

/// A replication through `Scenario::run`, untimed inside.
fn plain(config: SimConfig, protocol: ProtocolKind) -> RunReport {
    Scenario::new(config).run(protocol)
}

/// Terminals one replication of `point` simulates, over all its cells.
fn terminals(point: &CampaignPoint) -> u64 {
    let config = &point.point.config;
    config.system.map_or(1, |s| s.cells as u64) * (config.num_voice + config.num_data) as u64
}

/// Simulated terminals × frames × replications behind `rows`.
fn terminal_frames(points: &[CampaignPoint], rows: &[CampaignRow]) -> u64 {
    points
        .iter()
        .zip(rows)
        .map(|(p, row)| terminals(p) * p.point.config.total_frames() * row.reps())
        .sum()
}

/// Terminals built by one run of `rows` (all replications).
fn terminals_built(points: &[CampaignPoint], rows: &[CampaignRow]) -> u64 {
    points
        .iter()
        .zip(rows)
        .map(|(p, row)| terminals(p) * row.reps())
        .sum()
}

/// `points` cut to one measured frame and no warm-up: what is left of a
/// run is building its state.
fn cut_to_setup(points: &[CampaignPoint]) -> Vec<CampaignPoint> {
    points
        .iter()
        .cloned()
        .map(|mut p| {
            p.point.config.warmup_frames = 0;
            p.point.config.measured_frames = 1;
            p
        })
        .collect()
}

/// Runs `pass` until `seconds` of host time have gone (at least once).
/// Before each pass, `setup` runs until it has taken [`SETUP_SHARE`] of the
/// time so far (at least [`SETUP_MIN_REPS`] times in all).  Returns the
/// passes' results and every set-up time.
fn measure<T>(
    seconds: f64,
    mut pass: impl FnMut() -> T,
    setup: &mut dyn FnMut(),
) -> (Vec<T>, Vec<f64>) {
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut setup_s = Vec::new();
    let mut setup_total = 0.0;
    loop {
        while setup_s.len() < SETUP_MIN_REPS
            || setup_total < SETUP_SHARE * start.elapsed().as_secs_f64()
        {
            let t = Instant::now();
            setup();
            let dt = t.elapsed().as_secs_f64();
            setup_s.push(dt);
            setup_total += dt;
        }
        passes.push(pass());
        if start.elapsed().as_secs_f64() >= seconds {
            return (passes, setup_s);
        }
    }
}

/// Sweep workers for the timed passes: two, never more than the cores.
fn sweep_workers() -> usize {
    thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// The other worker count, for the determinism cross-check.
fn other_workers(workers: usize) -> usize {
    if workers == 1 {
        2
    } else {
        1
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics from pass times, the work of one pass and the
/// set-up times.
fn end_to_end(pass_s: &[f64], work: u64, setup_s: &[f64]) -> Vec<Metric> {
    let run_s = median(pass_s);
    eprintln!(
        "perfbench: {} passes, run_s min {:.4} median {run_s:.4} max {:.4}; {} set-ups",
        pass_s.len(),
        quantile(pass_s, 0.0),
        quantile(pass_s, 1.0),
        setup_s.len()
    );
    vec![
        metric("run_s", run_s),
        metric("terminal_frames_per_s", work as f64 / run_s),
        metric("setup_s", median(setup_s)),
        metric("peak_rss_mb", peak_rss_mb()),
    ]
}

// --- the MAC and columns layers -------------------------------------------

/// The name a protocol goes by in metric names.
fn protocol_key(protocol: ProtocolKind) -> &'static str {
    match protocol {
        ProtocolKind::Charisma => "charisma",
        ProtocolKind::DTdmaFr => "dtdma_fr",
        ProtocolKind::DTdmaVr => "dtdma_vr",
        ProtocolKind::Rama => "rama",
        ProtocolKind::Rmav => "rmav",
        ProtocolKind::Drma => "drma",
    }
}

/// Single-cell replications run through [`TimedMac`]: `run_frame` time per
/// protocol, and the `run_with` wall time around it.
#[derive(Debug, Default)]
struct MacLayer {
    /// Indexed like [`ProtocolKind::ALL`].
    per_protocol: [MacStats; 6],
    run_ns: u64,
    terminal_frames: u64,
}

impl MacLayer {
    fn slot(protocol: ProtocolKind) -> usize {
        ProtocolKind::ALL
            .iter()
            .position(|&p| p == protocol)
            .expect("every protocol is in ProtocolKind::ALL")
    }

    /// A replication through `Scenario::run_with` and the timing wrapper.
    fn run(&mut self, config: SimConfig, protocol: ProtocolKind) -> RunReport {
        let terminal_frames = (config.num_voice + config.num_data) as u64 * config.total_frames();
        let mut mac = TimedMac::new(protocol.build(&config));
        let scenario = Scenario::new(config);
        let start = Instant::now();
        let report = scenario.run_with(&mut mac);
        self.run_ns += start.elapsed().as_nanos() as u64;
        self.terminal_frames += terminal_frames;
        self.per_protocol[Self::slot(protocol)].merge(mac.into_stats());
        report
    }

    fn merge(&mut self, other: MacLayer) {
        for (mine, theirs) in self.per_protocol.iter_mut().zip(other.per_protocol) {
            mine.merge(theirs);
        }
        self.run_ns += other.run_ns;
        self.terminal_frames += other.terminal_frames;
    }

    fn mac_ns(&self) -> u64 {
        self.per_protocol.iter().map(|s| s.ns).sum()
    }

    /// MAC host ns per simulated terminal-frame.
    fn mac_per_terminal_frame(&self) -> f64 {
        self.mac_ns() as f64 / self.terminal_frames.max(1) as f64
    }

    /// `run_with` time outside `run_frame` — the traffic sweep over the
    /// terminal columns plus world assembly — per terminal-frame.
    fn columns_per_terminal_frame(&self) -> f64 {
        self.run_ns.saturating_sub(self.mac_ns()) as f64 / self.terminal_frames.max(1) as f64
    }

    fn metrics(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        for protocol in ProtocolKind::ALL {
            let s = &self.per_protocol[Self::slot(protocol)];
            let per_frame = if s.frames == 0 {
                0.0
            } else {
                s.ns as f64 / s.frames as f64
            };
            out.push(metric(
                format!("mac.frame_ns.{}", protocol_key(protocol)),
                per_frame,
            ));
        }
        let member_frames: u64 = self.per_protocol.iter().map(|s| s.member_frames).sum();
        let frames: u64 = self.per_protocol.iter().map(|s| s.frames).sum();
        let mut frame_ns: Vec<u32> = self
            .per_protocol
            .iter()
            .flat_map(|s| s.frame_ns.iter().copied())
            .collect();
        frame_ns.sort_unstable();
        // Nearest rank: the frame at `q` of the sorted list, in µs.
        let frame_us = |q: f64| {
            let rank = ((frame_ns.len() as f64 - 1.0) * q).round() as usize;
            frame_ns.get(rank).map_or(0.0, |&ns| ns as f64 / 1e3)
        };
        out.push(metric(
            "mac.ns_per_member_frame",
            self.mac_ns() as f64 / member_frames.max(1) as f64,
        ));
        out.push(metric("mac.frame_us_p50", frame_us(0.5)));
        out.push(metric("mac.frame_us_p99", frame_us(0.99)));
        out.push(metric(
            "mac.share",
            self.mac_ns() as f64 / self.run_ns.max(1) as f64,
        ));
        out.push(metric("mac.frames", frames as f64));
        out.push(metric(
            "columns.ns_per_terminal_frame",
            self.columns_per_terminal_frame(),
        ));
        out
    }
}

/// Builds the layer-table row of one workload, in host ns per
/// terminal-frame.
fn layer_row(
    total: f64,
    mac: &MacLayer,
    system: Option<f64>,
    sweep: Option<f64>,
    setup: f64,
) -> Vec<(&'static str, Option<f64>)> {
    vec![
        ("total", Some(total)),
        ("mac", Some(mac.mac_per_terminal_frame())),
        ("columns", Some(mac.columns_per_terminal_frame())),
        ("system", system),
        ("sweep", sweep),
        ("setup", Some(setup)),
    ]
}

// --- paper_sweep ----------------------------------------------------------

/// One untraced campaign pass on the sweep pool, with the completion
/// observer's timestamps.
struct SweepPass {
    rows: Vec<CampaignRow>,
    wall_s: f64,
    /// (worker, host seconds since the pass started) per completed point.
    done: Vec<(ThreadId, f64)>,
}

fn sweep_pass(campaign: &Campaign, points: usize, workers: usize) -> SweepPass {
    let done = Mutex::new(Vec::with_capacity(points));
    let start = Instant::now();
    let observer = |_: usize, _: &ReplicatedResult| {
        let at = start.elapsed().as_secs_f64();
        done.lock()
            .expect("a sweep worker panicked while recording")
            .push((thread::current().id(), at));
        true
    };
    let rows = campaign
        .run_replicated_observed(
            PROFILE.budget(),
            PROFILE.replications(),
            workers,
            vec![None; points],
            &observer,
        )
        .expect("registry campaigns run");
    let wall_s = start.elapsed().as_secs_f64();
    SweepPass {
        rows: rows
            .into_iter()
            .map(|r| r.expect("the observer never aborts"))
            .collect(),
        wall_s,
        done: done.into_inner().expect("observer lock"),
    }
}

/// What the sweep layer did in one pass.
struct SweepStats {
    /// Per-point busy time: each completion minus the worker's previous one.
    point_s: Vec<f64>,
    /// Σ busy / (workers × wall).
    efficiency: f64,
    /// Wall time after the first worker ran out of points.
    tail_idle_s: f64,
    /// Idle worker-seconds: workers × wall − Σ busy.
    idle_worker_s: f64,
}

fn sweep_stats(pass: &SweepPass, workers: usize) -> SweepStats {
    let mut per_worker: Vec<(ThreadId, Vec<f64>)> = Vec::new();
    for &(id, at) in &pass.done {
        match per_worker.iter_mut().find(|(w, _)| *w == id) {
            Some((_, times)) => times.push(at),
            None => per_worker.push((id, vec![at])),
        }
    }
    let mut point_s = Vec::new();
    let mut busy = 0.0;
    let mut first_idle = pass.wall_s;
    for (_, times) in &mut per_worker {
        times.sort_by(f64::total_cmp);
        let mut prev = 0.0;
        for &t in times.iter() {
            point_s.push(t - prev);
            prev = t;
        }
        busy += prev;
        first_idle = first_idle.min(prev);
    }
    let capacity = workers as f64 * pass.wall_s;
    SweepStats {
        point_s,
        efficiency: busy / capacity,
        tail_idle_s: pass.wall_s - first_idle,
        idle_worker_s: capacity - busy,
    }
}

/// The campaign's points through [`TimedMac`] on `workers` threads, dealt
/// round-robin like the sweep pool deals them.
fn traced_sweep(points: &[CampaignPoint], workers: usize) -> (Vec<CampaignRow>, f64, MacLayer) {
    let start = Instant::now();
    let mut slots: Vec<Option<CampaignRow>> = vec![None; points.len()];
    let mut buckets: Vec<Vec<_>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, pair) in points.iter().zip(slots.iter_mut()).enumerate() {
        buckets[i % workers].push(pair);
    }
    let layer = thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                scope.spawn(move || {
                    let mut layer = MacLayer::default();
                    for (point, slot) in bucket {
                        *slot = Some(run_point(point, &mut |c, p| layer.run(c, p)));
                    }
                    layer
                })
            })
            .collect();
        let mut total = MacLayer::default();
        for handle in handles {
            total.merge(handle.join().expect("a traced sweep worker panicked"));
        }
        total
    });
    let wall_s = start.elapsed().as_secs_f64();
    let rows = slots
        .into_iter()
        .map(|s| s.expect("every point ran"))
        .collect();
    (rows, wall_s, layer)
}

fn paper_sweep(opts: &Options) -> Outcome {
    let workload = Workload::PaperSweep;
    let campaign = workload.campaign(opts.seed);
    let points = workload.points(opts.seed);
    let workers = sweep_workers();
    let mut check = Check::default();

    let cut = FrameBudget {
        warmup: 0,
        measured: 1,
    };
    let mut built = 0;
    let mut setup = || {
        let run = campaign
            .run_replicated(cut, PROFILE.replications(), workers)
            .expect("registry campaigns run");
        built = terminals_built(&points, &run.rows);
    };

    if !opts.trace {
        let (passes, setup_s) = measure(
            opts.seconds,
            || sweep_pass(&campaign, points.len(), workers),
            &mut setup,
        );
        let rows = &passes[0].rows;
        check.invariants(rows);
        for pass in &passes[1..] {
            check.same_rows("repeated pass", rows, &pass.rows);
        }
        let other = other_workers(workers);
        let reference = campaign
            .run_replicated(PROFILE.budget(), PROFILE.replications(), other)
            .expect("registry campaigns run");
        check.same_rows(
            &format!("{workers} vs {other} sweep workers"),
            rows,
            &reference.rows,
        );
        check.committed(workload, opts.seed, rows);
        let pass_s: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        let metrics = end_to_end(&pass_s, terminal_frames(&points, rows), &setup_s);
        let (attempted, failed) = check.finish(points.len());
        return Outcome {
            attempted,
            failed,
            metrics,
            layer_row: Vec::new(),
        };
    }

    // Traced: an untraced pool pass (for the sweep layer and the overhead
    // base), then the same points through the timing wrapper.
    let (iterations, setup_s) = measure(
        opts.seconds,
        || {
            let untraced = sweep_pass(&campaign, points.len(), workers);
            let traced = traced_sweep(&points, workers);
            (untraced, traced)
        },
        &mut setup,
    );
    let mut mac = MacLayer::default();
    let mut untraced_s = Vec::new();
    let mut traced_s = 0.0;
    let mut point_s = Vec::new();
    let mut efficiency = Vec::new();
    let mut tail_idle = Vec::new();
    let mut idle_worker = Vec::new();
    let rows = iterations[0].0.rows.clone();
    check.invariants(&rows);
    check.committed(workload, opts.seed, &rows);
    for (untraced, (traced_rows, wall_s, layer)) in iterations {
        check.same_rows("repeated pass", &rows, &untraced.rows);
        check.same_rows("traced vs untraced", &rows, &traced_rows);
        let stats = sweep_stats(&untraced, workers);
        point_s.extend(stats.point_s);
        efficiency.push(stats.efficiency);
        tail_idle.push(stats.tail_idle_s);
        idle_worker.push(stats.idle_worker_s);
        untraced_s.push(untraced.wall_s);
        traced_s += wall_s;
        mac.merge(layer);
    }
    let work = terminal_frames(&points, &rows);
    let setup = median(&setup_s);
    let mut metrics = mac.metrics();
    metrics.extend([
        metric("sweep.points", rows.len() as f64),
        metric(
            "sweep.replications",
            rows.iter().map(|r| r.reps()).sum::<u64>() as f64,
        ),
        metric("sweep.pool_efficiency", median(&efficiency)),
        metric("sweep.tail_idle_s", median(&tail_idle)),
        metric("sweep.point_ms_p50", quantile(&point_s, 0.5) * 1e3),
        metric("sweep.point_ms_p90", quantile(&point_s, 0.9) * 1e3),
        metric("setup.ns_per_terminal", setup * 1e9 / built.max(1) as f64),
        metric("trace.overhead", traced_s / untraced_s.iter().sum::<f64>()),
    ]);
    // Pool time is worker time (workers × wall), like the summed MAC time.
    let per_tf = 1e9 / work as f64;
    let layer_row = layer_row(
        median(&untraced_s) * workers as f64 * per_tf,
        &mac,
        None,
        Some(median(&idle_worker) * per_tf),
        setup * per_tf,
    );
    let (attempted, failed) = check.finish(points.len());
    Outcome {
        attempted,
        failed,
        metrics,
        layer_row,
    }
}

// --- crowd_10k ------------------------------------------------------------

fn crowd_10k(opts: &Options) -> Outcome {
    let workload = Workload::Crowd10k;
    let points = workload.points(opts.seed);
    let mut check = Check::default();

    let cut = cut_to_setup(&points);
    let mut built = 0;
    let mut setup = || {
        let rows: Vec<CampaignRow> = cut.iter().map(|p| run_point(p, &mut plain)).collect();
        built = terminals_built(&cut, &rows);
    };
    let untraced_pass = || {
        let start = Instant::now();
        let rows: Vec<CampaignRow> = points.iter().map(|p| run_point(p, &mut plain)).collect();
        (rows, start.elapsed().as_secs_f64())
    };

    if !opts.trace {
        let (passes, setup_s) = measure(opts.seconds, untraced_pass, &mut setup);
        let rows = &passes[0].0;
        check.invariants(rows);
        for (again, _) in &passes[1..] {
            check.same_rows("repeated pass", rows, again);
        }
        check.committed(workload, opts.seed, rows);
        let pass_s: Vec<f64> = passes.iter().map(|p| p.1).collect();
        let metrics = end_to_end(&pass_s, terminal_frames(&points, rows), &setup_s);
        let (attempted, failed) = check.finish(points.len());
        return Outcome {
            attempted,
            failed,
            metrics,
            layer_row: Vec::new(),
        };
    }

    let mut mac = MacLayer::default();
    let (iterations, setup_s) = measure(
        opts.seconds,
        || {
            let untraced = untraced_pass();
            let start = Instant::now();
            let traced: Vec<CampaignRow> = points
                .iter()
                .map(|p| run_point(p, &mut |c, k| mac.run(c, k)))
                .collect();
            (untraced, traced, start.elapsed().as_secs_f64())
        },
        &mut setup,
    );
    let rows = iterations[0].0 .0.clone();
    check.invariants(&rows);
    check.committed(workload, opts.seed, &rows);
    let mut untraced_s = Vec::new();
    let mut traced_s = 0.0;
    for ((untraced, wall_s), traced, traced_wall) in &iterations {
        check.same_rows("repeated pass", &rows, untraced);
        check.same_rows("traced vs untraced", &rows, traced);
        untraced_s.push(*wall_s);
        traced_s += traced_wall;
    }
    let work = terminal_frames(&points, &rows);
    let setup = median(&setup_s);
    let mut metrics = mac.metrics();
    metrics.extend([
        metric("setup.ns_per_terminal", setup * 1e9 / built.max(1) as f64),
        metric("trace.overhead", traced_s / untraced_s.iter().sum::<f64>()),
    ]);
    let per_tf = 1e9 / work as f64;
    let layer_row = layer_row(
        median(&untraced_s) * per_tf,
        &mac,
        None,
        None,
        setup * per_tf,
    );
    let (attempted, failed) = check.finish(points.len());
    Outcome {
        attempted,
        failed,
        metrics,
        layer_row,
    }
}

// --- city_127 -------------------------------------------------------------

/// Coupled multi-cell runs at a fixed `system_threads`, timing
/// construction and the frame loop apart and checking that every terminal
/// ends attached to exactly one cell.
struct SystemRunner {
    threads: u32,
    new_s: f64,
    run_s: f64,
    uncovered: bool,
}

impl SystemRunner {
    fn new(threads: u32) -> Self {
        SystemRunner {
            threads,
            new_s: 0.0,
            run_s: 0.0,
            uncovered: false,
        }
    }

    fn run(&mut self, mut config: SimConfig, protocol: ProtocolKind) -> RunReport {
        let system = config.system.as_mut().expect("a multi-cell configuration");
        system.threads = self.threads;
        let terminals = system.cells * (config.num_voice + config.num_data);
        let start = Instant::now();
        let mut world = SystemWorld::new(config, protocol);
        self.new_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        let report = world.run();
        self.run_s += start.elapsed().as_secs_f64();
        let ids = world.attached_ids_sorted();
        let covered = ids.len() == terminals as usize
            && ids.iter().enumerate().all(|(i, id)| id.0 as usize == i);
        self.uncovered |= !covered;
        report
    }

    /// Runs every point, recording rows whose terminals did not end
    /// attached once each.
    fn rows(&mut self, points: &[CampaignPoint], check: &mut Check) -> Vec<CampaignRow> {
        points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                self.uncovered = false;
                let row = run_point(p, &mut |c, k| self.run(c, k));
                if self.uncovered {
                    check.fail(i, "attached ids do not cover each terminal once");
                }
                row
            })
            .collect()
    }
}

/// Each point's population as that many independent single cells (one per
/// cell of the layout, each on its own replication seed), through `run`.
/// Returns the reports in order.
fn independent_cells(
    points: &[CampaignPoint],
    run: &mut dyn FnMut(SimConfig, ProtocolKind) -> RunReport,
) -> Vec<RunReport> {
    let mut reports = Vec::new();
    for p in points {
        let mut base = p.point.config.clone();
        let cells = base
            .system
            .take()
            .expect("a multi-cell configuration")
            .cells;
        for cell in 0..cells {
            let mut config = base.clone();
            config.seed = base.replication_seed(cell);
            reports.push(run(config, p.point.protocol));
        }
    }
    reports
}

fn city_127(opts: &Options) -> Outcome {
    let workload = Workload::City127;
    let points = workload.points(opts.seed);
    let mut check = Check::default();

    let built: u64 = points.iter().map(terminals).sum();
    let mut setup = || {
        for p in &points {
            SystemWorld::new(p.point.config.clone(), p.point.protocol);
        }
    };

    if !opts.trace {
        let (passes, setup_s) = measure(
            opts.seconds,
            || {
                let start = Instant::now();
                let rows = SystemRunner::new(1).rows(&points, &mut check);
                (rows, start.elapsed().as_secs_f64())
            },
            &mut setup,
        );
        let rows = &passes[0].0;
        check.invariants(rows);
        for (again, _) in &passes[1..] {
            check.same_rows("repeated pass", rows, again);
        }
        let two = SystemRunner::new(2).rows(&points, &mut check);
        check.same_rows("system_threads 1 vs 2", rows, &two);
        check.committed(workload, opts.seed, rows);
        let pass_s: Vec<f64> = passes.iter().map(|p| p.1).collect();
        let metrics = end_to_end(&pass_s, terminal_frames(&points, rows), &setup_s);
        let (attempted, failed) = check.finish(points.len());
        return Outcome {
            attempted,
            failed,
            metrics,
            layer_row: Vec::new(),
        };
    }

    // Traced: the coupled system at one and two threads, then the same
    // population as independent cells, untraced and through the wrapper.
    let mut mac = MacLayer::default();
    let (iterations, setup_s) = measure(
        opts.seconds,
        || {
            let mut one = SystemRunner::new(1);
            let rows_one = one.rows(&points, &mut check);
            let mut two = SystemRunner::new(2);
            let rows_two = two.rows(&points, &mut check);
            let start = Instant::now();
            let untraced = independent_cells(&points, &mut plain);
            let untraced_s = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let traced = independent_cells(&points, &mut |c, k| mac.run(c, k));
            let traced_s = start.elapsed().as_secs_f64();
            if format!("{untraced:?}") != format!("{traced:?}") {
                for i in 0..points.len() {
                    check.fail(i, "independent cells: traced vs untraced reports differ");
                }
            }
            (one, rows_one, two, rows_two, untraced_s, traced_s)
        },
        &mut setup,
    );
    let rows = iterations[0].1.clone();
    check.invariants(&rows);
    check.committed(workload, opts.seed, &rows);
    let mut new_s = Vec::new();
    let mut pass_1t = Vec::new();
    let mut run_1t = Vec::new();
    let mut run_2t = Vec::new();
    let mut cells_s = Vec::new();
    let mut untraced_total = 0.0;
    let mut traced_total = 0.0;
    for (one, rows_one, two, rows_two, untraced_s, traced_s) in &iterations {
        check.same_rows("repeated pass", &rows, rows_one);
        check.same_rows("system_threads 1 vs 2", &rows, rows_two);
        new_s.push(one.new_s);
        pass_1t.push(one.new_s + one.run_s);
        run_1t.push(one.run_s);
        run_2t.push(two.run_s);
        cells_s.push(*traced_s);
        untraced_total += untraced_s;
        traced_total += traced_s;
    }
    let (attempts, successes) = rows.iter().fold((0, 0), |(a, s), row| {
        let h = &row.report.metrics.handoff;
        (a + h.attempts, s + h.successes)
    });
    let work = terminal_frames(&points, &rows);
    let setup = median(&setup_s);
    let (run_1t, run_2t, cells_s) = (median(&run_1t), median(&run_2t), median(&cells_s));
    let mut metrics = mac.metrics();
    metrics.extend([
        metric("system.new_s", median(&new_s)),
        metric("system.run_s_1t", run_1t),
        metric("system.run_s_2t", run_2t),
        metric("system.thread_speedup", run_1t / run_2t),
        metric("system.cells_equiv_s", cells_s),
        metric("system.overhead_ratio", run_1t / cells_s),
        metric("system.handoff_attempts", attempts as f64),
        metric("system.handoff_successes", successes as f64),
        metric("setup.ns_per_terminal", setup * 1e9 / built as f64),
        metric("trace.overhead", traced_total / untraced_total),
    ]);
    let per_tf = 1e9 / work as f64;
    let layer_row = layer_row(
        median(&pass_1t) * per_tf,
        &mac,
        Some((run_1t - cells_s) * per_tf),
        None,
        setup * per_tf,
    );
    let (attempted, failed) = check.finish(points.len());
    Outcome {
        attempted,
        failed,
        metrics,
        layer_row,
    }
}
