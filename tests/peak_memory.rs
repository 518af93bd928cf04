//! Peak-memory regression: a 10,000-terminal cell is built straight into the
//! structure-of-arrays store, with no second copy of the population staged
//! beside it.  Staging one record per terminal first roughly doubled the
//! set-up's peak (about 11 MB of growth against about 6 MB).
//!
//! The bound reads `VmHWM` from `/proc/self/status`, so the file is
//! Linux-only.  It holds one test: tests in one binary share the process,
//! and its high-water mark.
#![cfg(target_os = "linux")]

use charisma::{ProtocolKind, Scenario, SimConfig};

/// Largest peak-RSS growth (MB) a one-frame 10,000-terminal run may cause.
const MAX_GROWTH_MB: f64 = 8.0;

/// This process's peak resident set size (`VmHWM`), in kB.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|value| value.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
        .expect("VmHWM in /proc/self/status")
}

#[test]
fn a_10k_terminal_cell_builds_without_a_staging_copy() {
    // The `smoke_10k` population, cut to one frame: what is left is set-up.
    let mut config = SimConfig::quick_test();
    config.num_voice = 9_000;
    config.num_data = 1_000;
    config.request_queue = true;
    config.warmup_frames = 0;
    config.measured_frames = 1;

    let before = peak_rss_kb();
    let report = Scenario::new(config).run(ProtocolKind::DTdmaVr);
    let growth_mb = peak_rss_kb().saturating_sub(before) as f64 / 1024.0;

    assert_eq!(report.metrics.frames, 1);
    assert!(
        growth_mb < MAX_GROWTH_MB,
        "peak RSS grew {growth_mb:.2} MB building and running 10,000 terminals \
         (bound {MAX_GROWTH_MB} MB)"
    );
}
