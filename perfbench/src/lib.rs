//! The repository benchmark: three workloads driven through the simulator's
//! public API, with host time measured from outside every layer.
//!
//! * [`TimedMac`] wraps any [`UplinkMac`] and times each `run_frame` call,
//!   which is how the per-layer MAC numbers are taken without touching the
//!   simulator.
//! * [`workloads`] runs `paper_sweep`, `crowd_10k` and `city_127`, checks
//!   their outputs and collects the metrics.
//! * [`report`] records the machine, renders the result line, writes the
//!   untracked per-layer side file and prints the layer table.
//!
//! `README.md` beside this crate maps every metric to its layer and to the
//! end-to-end figure it should move.

use charisma::traffic::TerminalId;
use charisma::{FrameWorld, ProtocolKind, UplinkMac};
use std::time::Instant;

pub mod report;
pub mod workloads;

/// Host time spent inside one protocol's `run_frame`.
#[derive(Debug, Clone, Default)]
pub struct MacStats {
    /// Frames executed.
    pub frames: u64,
    /// Host nanoseconds inside `run_frame`, summed.
    pub ns: u64,
    /// Cell members summed over frames (terminal-frames the MAC served).
    pub member_frames: u64,
    /// Host nanoseconds of each frame, for the percentiles.
    pub frame_ns: Vec<u32>,
}

impl MacStats {
    /// Adds `other`'s frames to these.
    pub fn merge(&mut self, other: MacStats) {
        self.frames += other.frames;
        self.ns += other.ns;
        self.member_frames += other.member_frames;
        self.frame_ns.extend(other.frame_ns);
    }
}

/// An [`UplinkMac`] that forwards every call to the wrapped protocol and
/// times `run_frame` with the host clock.  The simulation it drives is the
/// same one the bare protocol drives: the wrapper changes no state the
/// simulator can see (pinned by `tests/timed_mac.rs`).
pub struct TimedMac {
    inner: Box<dyn UplinkMac>,
    stats: MacStats,
}

impl TimedMac {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn UplinkMac>) -> Self {
        TimedMac {
            inner,
            stats: MacStats::default(),
        }
    }

    /// The timings so far.
    pub fn stats(&self) -> &MacStats {
        &self.stats
    }

    /// Consumes the wrapper, returning its timings.
    pub fn into_stats(self) -> MacStats {
        self.stats
    }
}

impl UplinkMac for TimedMac {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kind(&self) -> ProtocolKind {
        self.inner.kind()
    }

    fn supports_request_queue(&self) -> bool {
        self.inner.supports_request_queue()
    }

    fn run_frame(&mut self, world: &mut FrameWorld<'_>) {
        let members = world.members().len() as u64;
        let start = Instant::now();
        self.inner.run_frame(world);
        let ns = start.elapsed().as_nanos();
        self.stats.frames += 1;
        self.stats.ns += ns as u64;
        self.stats.member_frames += members;
        self.stats.frame_ns.push(ns.min(u32::MAX as u128) as u32);
    }

    fn forget_terminal(&mut self, id: TerminalId) {
        self.inner.forget_terminal(id);
    }
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}
