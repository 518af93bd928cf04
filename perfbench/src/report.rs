//! The machine record, the result line, the per-layer side file and the
//! layer table.

use crate::workloads::{Outcome, Workload};
use charisma::Json;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The end-to-end metrics an untraced run reports: name and unit, as in
/// `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("run_s", "s"),
    ("terminal_frames_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics a traced run reports: name and unit, as in
/// `BENCHMARK.json`.  A layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("mac.frame_ns.charisma", "ns"),
    ("mac.frame_ns.dtdma_fr", "ns"),
    ("mac.frame_ns.dtdma_vr", "ns"),
    ("mac.frame_ns.rama", "ns"),
    ("mac.frame_ns.rmav", "ns"),
    ("mac.frame_ns.drma", "ns"),
    ("mac.ns_per_member_frame", "ns"),
    ("mac.frame_us_p50", "us"),
    ("mac.frame_us_p99", "us"),
    ("mac.share", "ratio"),
    ("mac.frames", "count"),
    ("columns.ns_per_terminal_frame", "ns"),
    ("system.new_s", "s"),
    ("system.run_s_1t", "s"),
    ("system.run_s_2t", "s"),
    ("system.thread_speedup", "ratio"),
    ("system.cells_equiv_s", "s"),
    ("system.overhead_ratio", "ratio"),
    ("system.handoff_attempts", "count"),
    ("system.handoff_successes", "count"),
    ("sweep.points", "count"),
    ("sweep.replications", "count"),
    ("sweep.pool_efficiency", "ratio"),
    ("sweep.tail_idle_s", "s"),
    ("sweep.point_ms_p50", "ms"),
    ("sweep.point_ms_p90", "ms"),
    ("setup.ns_per_terminal", "ns"),
    ("trace.overhead", "ratio"),
];

/// The machine a result was measured on.  Recorded beside every result;
/// no metric is normalised by it.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Cores available to the process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// The git revision of the checkout, or `unknown`.
    pub git_revision: String,
    /// Rate of a fixed integer loop that shares no code with the
    /// simulator, in million iterations per second.
    pub calibration_mops: f64,
}

impl Machine {
    /// Probes the machine (runs the calibration loop, about 0.1 s).
    pub fn probe() -> Machine {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc,
            git_revision: charisma_bench::registry::git_revision(),
            calibration_mops: calibration_mops(),
        }
    }

    /// The record as JSON.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("nproc".into(), Json::Int(self.nproc as u64)),
            ("cpu_model".into(), Json::Str(self.cpu_model.clone())),
            ("rustc".into(), Json::Str(self.rustc.clone())),
            ("git_revision".into(), Json::Str(self.git_revision.clone())),
            ("calibration_mops".into(), Json::Num(self.calibration_mops)),
        ])
    }
}

/// Iterations per microsecond of a xorshift/multiply chain.
fn calibration_mops() -> f64 {
    const ITERATIONS: u64 = 50_000_000;
    let start = Instant::now();
    let mut x: u64 = std::hint::black_box(0x9E37_79B9_7F4A_7C15);
    let mut acc: u64 = 0;
    for _ in 0..ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.wrapping_mul(0x2545_F491_4F6C_DD1D));
    }
    std::hint::black_box(acc);
    ITERATIONS as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// The metrics of `outcome` in the order and with the units `BENCHMARK.json`
/// lists, every listed name present (0 for a layer the run never called).
pub fn listed_metrics(outcome: &Outcome, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
    let listed: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    listed
        .iter()
        .map(|&(name, unit)| {
            let value = outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            (name, value, unit)
        })
        .collect()
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics = listed_metrics(outcome, trace)
        .into_iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { value } else { 0.0 };
            (
                name.to_string(),
                Json::Object(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    Json::Object(vec![
        ("correct".into(), Json::Bool(outcome.failed == 0)),
        ("attempted".into(), Json::Int(outcome.attempted)),
        ("failed".into(), Json::Int(outcome.failed)),
        ("metrics".into(), Json::Object(metrics)),
    ])
    .to_compact_string()
}

/// Where traced runs leave their per-layer numbers: beside the benchmark,
/// untracked, never under `results/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes `<dir>/<workload>.json`: the machine, the seed, every per-layer
/// metric and the layer-table row.
pub fn write_side_file(
    dir: &Path,
    workload: Workload,
    seed: u64,
    machine: &Machine,
    outcome: &Outcome,
) -> std::io::Result<PathBuf> {
    let metrics = listed_metrics(outcome, true)
        .into_iter()
        .map(|(name, value, _)| (name.to_string(), Json::Num(value)))
        .collect();
    let row = outcome
        .layer_row
        .iter()
        .map(|&(layer, ns)| (layer.to_string(), ns.map_or(Json::Null, Json::Num)))
        .collect();
    let doc = Json::Object(vec![
        ("workload".into(), Json::Str(workload.name().into())),
        ("seed".into(), Json::Int(seed)),
        ("machine".into(), machine.to_json()),
        ("correct".into(), Json::Bool(outcome.failed == 0)),
        ("metrics".into(), Json::Object(metrics)),
        ("ns_per_terminal_frame".into(), Json::Object(row)),
    ]);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", workload.name()));
    std::fs::write(&path, format!("{doc}\n"))?;
    Ok(path)
}

/// The layer table over every workload with a side file in `dir`: one row
/// per workload, one column per layer, host ns per terminal-frame.
pub fn layer_table(dir: &Path, machine: &Machine) -> String {
    let mut out = String::new();
    out.push_str(" Environment | Value\n ------ | ------\n");
    out.push_str(&format!(" CPU | {}\n", machine.cpu_model));
    out.push_str(&format!(" Cores | {}\n", machine.nproc));
    out.push_str(&format!(" Compiler | {}\n", machine.rustc));
    out.push_str(&format!(" Revision | {}\n", machine.git_revision));
    out.push_str(&format!(
        " Calibration | {:.1} Mop/s\n\n",
        machine.calibration_mops
    ));
    out.push_str(
        "All values in **host ns/terminal-frame** (lower is better), summed over \
         threads, so a 2-worker pool counts both workers; \"-\" = layer not called \
         by the workload.\n\n",
    );
    let columns = ["total", "mac", "columns", "system", "sweep", "setup"];
    out.push_str(" Workload");
    for c in columns {
        out.push_str(&format!(" | {c}"));
    }
    out.push_str("\n ------");
    for _ in columns {
        out.push_str(" | ------");
    }
    out.push('\n');
    for workload in Workload::ALL {
        let path = dir.join(format!("{}.json", workload.name()));
        let Some(doc) = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| Json::parse(&text).ok())
        else {
            continue;
        };
        out.push_str(&format!(" {}", workload.name()));
        for c in columns {
            match doc
                .get("ns_per_terminal_frame")
                .and_then(|row| row.get(c))
                .and_then(Json::as_f64)
            {
                Some(ns) => out.push_str(&format!(" | {ns:.2}")),
                None => out.push_str(" | -"),
            }
        }
        out.push('\n');
    }
    out
}

/// Prints `metric` lines for a human reader (stderr).
pub fn print_metrics(metrics: &[(&str, f64, &str)]) {
    for (name, value, unit) in metrics {
        eprintln!("  {name:<32} {value:>16.4} {unit}");
    }
}
