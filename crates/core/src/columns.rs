//! Structure-of-arrays storage for protocol-independent terminal state.
//!
//! [`TerminalColumns`] owns the per-terminal state of a whole population as
//! parallel columns — one contiguous array per field — instead of one struct
//! per terminal.  The per-frame sweep (source stepping, deadline expiry,
//! fading advance, SNR sampling) then runs as tight loops over the columns it
//! actually touches, which is what lets the frame loop batch well at 10k+
//! terminals per cell.
//!
//! Everything here is *protocol independent*: a terminal's traffic sources
//! and transmit buffers, its fading channel, and its private random streams
//! for contention decisions and packet-error draws.  Protocol-specific state
//! (reservations, pending requests, grants) lives in the protocol
//! implementations, keyed by [`TerminalId`](charisma_traffic::TerminalId),
//! so that the exact same population — same fading sample paths, same
//! talkspurts, same data bursts — is presented to every protocol under
//! comparison.
//!
//! # Construction
//!
//! `TerminalColumns::push_terminal` is the one construction path: it
//! derives terminal `cell · per_cell + local`'s class, load-ramp dormancy and
//! random streams from the scenario seed and writes each column in place, so
//! no per-terminal record is ever staged.  The single-cell scenario is the
//! `cell = 0` case of the system layer's per-cell loop.
//!
//! # Column layout
//!
//! Terminals are pushed in index order, so column slot `i` is terminal
//! `TerminalId(i)` everywhere in the store.  The columns are:
//!
//! | column              | element                      | written by                 |
//! |---------------------|------------------------------|----------------------------|
//! | `class`             | `TerminalClass`              | construction only          |
//! | `active_from_frame` | `u64`                        | construction only          |
//! | `in_talkspurt`      | `bool`                       | `begin_frame`              |
//! | `traffic_boundary`  | `u64`                        | `begin_frame`              |
//! | `voice_source`      | `Option<VoiceSource>`        | `begin_frame`              |
//! | `voice_buffer`      | `VoiceBuffer`                | `begin_frame`, MAC serving |
//! | `data_source`       | `Option<DataSource>`         | `begin_frame`              |
//! | `data_buffer`       | `DataBuffer`                 | `begin_frame`, MAC serving |
//! | `mean_snr_db`       | `f64`                        | pending-link fold          |
//! | `pending_link`      | `Option<PendingLink>`        | system layer (roam, merge) |
//! | `short`             | `ShortTermFading`            | channel advance            |
//! | `long`              | `LongTermShadowing`          | channel advance            |
//! | `chan_rng`          | `Xoshiro256StarStar`         | channel advance            |
//! | `chan_now`          | `SimTime`                    | channel advance            |
//! | `snr_cache`         | `Option<(SimTime, f64)>`     | SNR sampling               |
//! | `contention_rng`    | `Xoshiro256StarStar`         | contention draws           |
//! | `phy_rng`           | `Xoshiro256StarStar`         | packet-error draws         |
//!
//! `pending_link` exists only in a store built with a [`PathLossConfig`]
//! (the multi-cell system layer).  The system layer records each member's
//! serving-link distance and site shadow there every frame instead of
//! evaluating the log-distance path loss, and the first channel evaluation
//! that needs the mean SNR folds the latest recorded link into
//! `mean_snr_db` as `path_loss.mean_snr_db(d) + shadow_db` — the same
//! operations in the same order, paid only by the few terminals whose
//! channel is read in that frame.  Nothing reads the mean SNR between the
//! writes and the fold, so the deferred value is bit-identical to the eager
//! one.  Single-cell stores carry no profile, allocate no column, and their
//! fold is a no-op.
//!
//! # Determinism
//!
//! The columnar refactor changes *layout*, not *draws*: every random stream
//! is still private to one (domain, terminal) pair, every per-terminal
//! operation performs exactly the draws and floating-point operations the
//! object-per-terminal code performed, and batched loops visit terminals in
//! ascending index order — the documented draw order.  The golden-bytes
//! suite in `tests/determinism.rs` pins pre-refactor report bytes against
//! this implementation.
//!
//! # Shared access
//!
//! `ColumnsView` is the crate-internal raw handle: a bundle of column base
//! pointers that the sharded system layer copies into its per-cell workers.
//! Exclusivity is by *cell membership partition* — every terminal index
//! belongs to exactly one cell per frame, and a worker only touches the
//! indices of the cells it owns.

use charisma_des::{FrameClock, RngStreams, SimTime, StreamId, Xoshiro256StarStar};
use charisma_radio::{
    ChannelMode, CombinedChannel, LongTermShadowing, Mobility, PathLossConfig, ShortTermFading,
};
use charisma_traffic::{
    buffer::VoicePacket, DataBuffer, DataSource, TerminalClass, VoiceBuffer, VoiceSource,
};
use serde::{Deserialize, Serialize};

use crate::config::SimConfig;

/// What happened at a terminal at the start of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FrameTraffic {
    /// A new talkspurt started (the terminal must request an uplink grant).
    pub talkspurt_started: bool,
    /// The current talkspurt ended (any reservation should be released).
    pub talkspurt_ended: bool,
    /// A voice packet was generated at this boundary.
    pub voice_packet_generated: bool,
    /// Number of data packets that arrived at this boundary.
    pub data_packets_arrived: u32,
    /// Voice packets dropped at this boundary because their deadline expired.
    pub voice_packets_dropped: u32,
}

/// Population-wide sums of one frame boundary's traffic events, accumulated
/// by [`TerminalColumns::begin_frame_all`] alongside the per-terminal
/// [`FrameTraffic`] reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficTotals {
    /// Voice packets generated at this boundary.
    pub voice_generated: u64,
    /// Voice packets dropped at this boundary (deadline expiry).
    pub voice_dropped: u64,
    /// Data packets that arrived at this boundary.
    pub data_arrived: u64,
}

/// A serving link recorded by the system layer and not yet folded into the
/// terminal's mean SNR: the distance to the serving base station and the
/// site-shadowing offset of the (terminal, cell) attachment.
#[derive(Debug)]
struct PendingLink {
    distance_m: f64,
    shadow_db: f64,
}

impl PendingLink {
    /// Panics if the distance is negative or not finite, at the write rather
    /// than at a fold that may come frames later.
    fn new(distance_m: f64, shadow_db: f64) -> Self {
        assert!(
            distance_m >= 0.0 && distance_m.is_finite(),
            "distance must be finite and non-negative, got {distance_m}"
        );
        PendingLink {
            distance_m,
            shadow_db,
        }
    }

    /// The mean SNR (dB) the link implies through `path_loss`.  Out of line
    /// so that the channel evaluation, which single-cell stores share and
    /// never fold in, keeps its size.
    #[inline(never)]
    fn mean_snr_db(self, path_loss: &PathLossConfig) -> f64 {
        let mean_snr_db = path_loss.mean_snr_db(self.distance_m) + self.shadow_db;
        assert!(mean_snr_db.is_finite(), "mean SNR must be finite");
        mean_snr_db
    }
}

const NO_PATH_LOSS: &str = "serving links need a store with a path-loss profile";

/// Structure-of-arrays store of every terminal's protocol-independent state.
///
/// Built with `push_terminal` in index order; from then on all per-frame
/// behaviour (traffic advance, channel stepping, SNR sampling, buffer
/// service) is expressed over column indices.
#[derive(Debug)]
pub struct TerminalColumns {
    clock: FrameClock,
    channel_mode: ChannelMode,
    class: Vec<TerminalClass>,
    active_from_frame: Vec<u64>,
    in_talkspurt: Vec<bool>,
    /// First frame index at which `begin_frame` must do any work for the
    /// terminal: the earlier of the next source event (clamped to the
    /// activation frame while dormant) and the first frame boundary at or
    /// past the earliest buffered voice deadline.  Frames strictly before it
    /// are total no-ops — no source step, no expiry, no report — which is
    /// what lets the per-frame sweep skip idle terminals without touching
    /// their buffers.  MAC service between sweeps only removes packets, so
    /// the deadline component can only move later and the stored bound stays
    /// conservative.
    traffic_boundary: Vec<u64>,
    voice_source: Vec<Option<VoiceSource>>,
    voice_buffer: Vec<VoiceBuffer>,
    data_source: Vec<Option<DataSource>>,
    data_buffer: Vec<DataBuffer>,
    mean_snr_db: Vec<f64>,
    /// The path-loss profile the pending links fold through; `None` (and an
    /// empty `pending_link`) for single-cell stores.
    path_loss: Option<PathLossConfig>,
    /// The latest serving link not yet folded into `mean_snr_db`.
    pending_link: Vec<Option<PendingLink>>,
    short: Vec<ShortTermFading>,
    long: Vec<LongTermShadowing>,
    chan_rng: Vec<Xoshiro256StarStar>,
    chan_now: Vec<SimTime>,
    snr_cache: Vec<Option<(SimTime, f64)>>,
    contention_rng: Vec<Xoshiro256StarStar>,
    phy_rng: Vec<Xoshiro256StarStar>,
}

impl TerminalColumns {
    /// An empty store with room for `capacity` terminals of `config`'s
    /// population.  With a `path_loss` profile the mean SNRs follow serving
    /// links recorded with [`TerminalColumns::record_link`] (the multi-cell
    /// system layer); without one they stay at the configured operating
    /// point.
    pub(crate) fn new(
        config: &SimConfig,
        capacity: usize,
        path_loss: Option<PathLossConfig>,
    ) -> Self {
        TerminalColumns {
            clock: config.clock(),
            channel_mode: config.channel_mode,
            class: Vec::with_capacity(capacity),
            active_from_frame: Vec::with_capacity(capacity),
            in_talkspurt: Vec::with_capacity(capacity),
            traffic_boundary: Vec::with_capacity(capacity),
            voice_source: Vec::with_capacity(capacity),
            voice_buffer: Vec::with_capacity(capacity),
            data_source: Vec::with_capacity(capacity),
            data_buffer: Vec::with_capacity(capacity),
            mean_snr_db: Vec::with_capacity(capacity),
            path_loss,
            pending_link: Vec::with_capacity(if path_loss.is_some() { capacity } else { 0 }),
            short: Vec::with_capacity(capacity),
            long: Vec::with_capacity(capacity),
            chan_rng: Vec::with_capacity(capacity),
            chan_now: Vec::with_capacity(capacity),
            snr_cache: Vec::with_capacity(capacity),
            contention_rng: Vec::with_capacity(capacity),
            phy_rng: Vec::with_capacity(capacity),
        }
    }

    /// Builds terminal `cell · per_cell + local` of `config`'s starting
    /// population straight into the columns and returns its mobility (the
    /// speed the system layer's random waypoint moves at).
    ///
    /// Every cell starts with `per_cell = num_voice + num_data` terminals,
    /// voice first; a load ramp keeps the voice terminals from
    /// `initial_voice` on dormant until its activation frame.  Each random
    /// stream is derived from the scenario seed and the global terminal
    /// index, so the single cell (`cell = 0`) and cell 0 of a system build
    /// the same terminals.  Terminals must be pushed in index order, so
    /// that slot `i` is `TerminalId(i)`.
    pub(crate) fn push_terminal(
        &mut self,
        config: &SimConfig,
        streams: &RngStreams,
        cell: u32,
        local: u32,
    ) -> Mobility {
        let per_cell = config.num_voice + config.num_data;
        debug_assert!(local < per_cell, "local index {local} outside the cell");
        let idx = cell * per_cell + local;
        debug_assert_eq!(
            idx as usize,
            self.len(),
            "terminals must be pushed in index order"
        );
        debug_assert!(
            config.clock() == self.clock && config.channel_mode == self.channel_mode,
            "terminal built for another store's clock or channel mode"
        );
        let class = if local < config.num_voice {
            TerminalClass::Voice
        } else {
            TerminalClass::Data
        };
        let active_from_frame = match &config.ramp {
            Some(ramp) if class == TerminalClass::Voice && local >= ramp.initial_voice => {
                ramp.activation_frame
            }
            _ => 0,
        };
        // Speed sampling borrows DOMAIN_PROTOCOL by mirroring the terminal
        // index into the upper half of the entity space (`idx ^ 0x8000_0000`);
        // per-cell base-station streams count down from `u32::MAX` in that
        // same half (`StreamId::cell_entity`).  The two sub-ranges collide
        // only when a terminal index reaches `0x7FFF_FFFF - cell`, so the
        // scheme is sound for populations below 2^31 terminals; see the
        // stream-derivation table in ARCHITECTURE.md.  Population-level
        // guards live in the scenario/system constructors; this one pins the
        // per-terminal half.
        debug_assert!(
            idx < 0x8000_0000,
            "terminal index {idx:#010x} would escape the reserved \
             DOMAIN_PROTOCOL speed-stream sub-range [0x8000_0000, 0xFFFF_FFFF]"
        );
        let mut speed_rng =
            streams.stream(StreamId::new(StreamId::DOMAIN_PROTOCOL, idx ^ 0x8000_0000));
        let mobility = Mobility::new(config.speed.sample(&mut speed_rng));
        let channel = CombinedChannel::new(
            config.channel,
            mobility,
            streams.stream(StreamId::new(StreamId::DOMAIN_CHANNEL, idx)),
        )
        .into_parts();
        let (voice_source, data_source) = match class {
            TerminalClass::Voice => (
                Some(VoiceSource::new(
                    config.voice_source,
                    self.clock,
                    streams.stream(StreamId::new(StreamId::DOMAIN_VOICE, idx)),
                )),
                None,
            ),
            TerminalClass::Data => (
                None,
                Some(DataSource::new(
                    config.data_source,
                    self.clock,
                    streams.stream(StreamId::new(StreamId::DOMAIN_DATA, idx)),
                )),
            ),
        };
        let voice_buffer = VoiceBuffer::new();

        self.class.push(class);
        self.active_from_frame.push(active_from_frame);
        self.in_talkspurt
            .push(voice_source.as_ref().is_some_and(VoiceSource::is_talking));
        self.traffic_boundary.push(Self::boundary_for(
            &voice_source,
            &data_source,
            &voice_buffer,
            active_from_frame,
            0,
            self.clock.frame_duration().as_micros(),
        ));
        self.voice_source.push(voice_source);
        self.voice_buffer.push(voice_buffer);
        self.data_source.push(data_source);
        self.data_buffer.push(DataBuffer::new());
        self.mean_snr_db.push(channel.config.mean_snr_db);
        if self.path_loss.is_some() {
            self.pending_link.push(None);
        }
        self.short.push(channel.short);
        self.long.push(channel.long);
        self.chan_rng.push(channel.rng);
        self.chan_now.push(channel.now);
        self.snr_cache.push(None);
        self.contention_rng
            .push(streams.stream(StreamId::new(StreamId::DOMAIN_CONTENTION, idx)));
        self.phy_rng
            .push(streams.stream(StreamId::new(StreamId::DOMAIN_PHY, idx)));
        mobility
    }

    /// First frame at which `begin_frame` must do any work for a terminal in
    /// this state: the earlier of the two sources' next events — clamped to
    /// the activation frame while the next frame to visit (`frame_index`) is
    /// at or before it, so the activation boundary itself is never skipped
    /// and `in_talkspurt` / buffer state update there exactly as in the
    /// every-frame path — and the first frame boundary at or past the
    /// earliest buffered voice deadline (the first frame whose expiry check
    /// could drop a packet; a packet with deadline `d` is dropped at the
    /// first frame start `k·T ≥ d`, i.e. `k = ⌈d / T⌉`).
    fn boundary_for(
        voice: &Option<VoiceSource>,
        data: &Option<DataSource>,
        voice_buffer: &VoiceBuffer,
        active_from_frame: u64,
        frame_index: u64,
        frame_us: u64,
    ) -> u64 {
        let mut b = voice
            .as_ref()
            .map_or(u64::MAX, |s| s.next_event_frame())
            .min(data.as_ref().map_or(u64::MAX, |s| s.next_event_frame()));
        if frame_index <= active_from_frame {
            b = b.min(active_from_frame);
        }
        // Every buffered deadline survived the expiry check of the frame just
        // processed, so its drop frame is at least `frame_index` — when `b` is
        // already down there the min cannot lower it, and the division (and
        // the buffer read) is skipped.  A terminal mid-talkspurt generates a
        // packet next frame, so the hot path never pays for this bound.
        if b > frame_index {
            if let Some(d) = voice_buffer.earliest_deadline() {
                b = b.min(d.as_micros().div_ceil(frame_us));
            }
        }
        b
    }

    /// Number of terminals in the store.
    pub fn len(&self) -> usize {
        self.class.len()
    }

    /// Whether the store holds no terminals.
    pub fn is_empty(&self) -> bool {
        self.class.is_empty()
    }

    /// The frame clock the population is driven by.
    pub fn clock(&self) -> FrameClock {
        self.clock
    }

    /// How the channels advance along the frame grid.
    pub fn channel_mode(&self) -> ChannelMode {
        self.channel_mode
    }

    /// The raw column view used by the frame engine and the sharded system
    /// layer.  Column base pointers stay valid for as long as no terminal is
    /// pushed (the vectors never reallocate otherwise).
    pub(crate) fn view(&mut self) -> ColumnsView {
        ColumnsView {
            len: self.class.len(),
            clock: self.clock,
            channel_mode: self.channel_mode,
            class: self.class.as_mut_ptr(),
            active_from_frame: self.active_from_frame.as_mut_ptr(),
            in_talkspurt: self.in_talkspurt.as_mut_ptr(),
            traffic_boundary: self.traffic_boundary.as_mut_ptr(),
            voice_source: self.voice_source.as_mut_ptr(),
            voice_buffer: self.voice_buffer.as_mut_ptr(),
            data_source: self.data_source.as_mut_ptr(),
            data_buffer: self.data_buffer.as_mut_ptr(),
            mean_snr_db: self.mean_snr_db.as_mut_ptr(),
            path_loss: self.path_loss,
            pending_link: self.pending_link.as_mut_ptr(),
            short: self.short.as_mut_ptr(),
            long: self.long.as_mut_ptr(),
            chan_rng: self.chan_rng.as_mut_ptr(),
            chan_now: self.chan_now.as_mut_ptr(),
            snr_cache: self.snr_cache.as_mut_ptr(),
            contention_rng: self.contention_rng.as_mut_ptr(),
            phy_rng: self.phy_rng.as_mut_ptr(),
        }
    }

    // ----- safe single-owner wrappers over the view operations -----
    //
    // Holding `&mut self` is exclusive access to every column, so the raw
    // view operations are trivially sound here.

    /// Advances terminal `i`'s traffic across the boundary that starts
    /// `frame_index` and reports what happened (see [`FrameTraffic`]).
    pub fn begin_frame(&mut self, i: usize, frame_index: u64) -> FrameTraffic {
        unsafe { self.view().begin_frame(i, frame_index) }
    }

    /// Runs [`TerminalColumns::begin_frame`] for every terminal in ascending
    /// index order — the documented draw order — writing each terminal's
    /// report into `traffic` and returning the population-wide totals (so
    /// single-cell scenario loops don't need a second accumulation pass).
    pub fn begin_frame_all(
        &mut self,
        frame_index: u64,
        traffic: &mut [FrameTraffic],
    ) -> TrafficTotals {
        assert_eq!(traffic.len(), self.len(), "traffic slice length mismatch");
        let now = self.clock.frame_start(frame_index);
        if self.channel_mode == ChannelMode::Eager {
            // Same draws as the interleaved per-terminal path: the channel
            // streams are per-terminal, so hoisting the channel sweep out of
            // the traffic loop is loop fission across independent streams and
            // changes no draw.
            let view = self.view();
            for i in 0..view.len() {
                unsafe {
                    view.advance_channel_eager(i, now);
                    *view.snr_cache.add(i) = None;
                }
            }
        }
        // Safe zipped-slice sweep (exclusive `&mut self` — no raw view
        // needed); mirrors `ColumnsView::begin_frame_at` terminal for
        // terminal, with bounds checks elided by the zips.  Frames strictly
        // before a terminal's `traffic_boundary` are total no-ops: the source
        // calls would be no-ops (no state change, no draw), the expiry check
        // could drop nothing (the boundary covers the earliest buffered
        // deadline), dormancy has no edge, and `in_talkspurt` cannot change —
        // so the skip is behaviour-for-behaviour identical to the full path
        // without touching the terminal's buffers at all.
        let frame_us = self.clock.frame_duration().as_micros();
        let mut totals = TrafficTotals::default();
        // One sequential clear up front turns the common no-event slot writes
        // into a single memset; the sweep then touches a slot only when the
        // terminal actually had an event (identical slice contents).
        traffic.fill(FrameTraffic::default());
        for (((((slot, vbuf), boundary), srcs), dbuf), (talk, active_from)) in traffic
            .iter_mut()
            .zip(self.voice_buffer.iter_mut())
            .zip(self.traffic_boundary.iter_mut())
            .zip(
                self.voice_source
                    .iter_mut()
                    .zip(self.data_source.iter_mut()),
            )
            .zip(self.data_buffer.iter_mut())
            .zip(
                self.in_talkspurt
                    .iter_mut()
                    .zip(self.active_from_frame.iter()),
            )
        {
            if frame_index < *boundary {
                continue;
            }
            let (vsrc, dsrc) = srcs;
            // Deadline enforcement happens before new packets arrive so a
            // packet generated at this boundary can never be dropped at the
            // same boundary.
            let mut out = FrameTraffic {
                voice_packets_dropped: vbuf.drop_expired(now) as u32,
                ..FrameTraffic::default()
            };
            if let Some(src) = vsrc.as_mut() {
                let activity = src.on_frame_start(frame_index);
                *talk = src.is_talking();
                out.talkspurt_started = activity.talkspurt_started;
                out.talkspurt_ended = activity.talkspurt_ended;
                if activity.packet_generated {
                    let deadline = src.deadline_for(frame_index);
                    vbuf.push(VoicePacket {
                        generated_at: now,
                        deadline,
                    });
                    out.voice_packet_generated = true;
                }
            }
            if let Some(src) = dsrc.as_mut() {
                let arrived = src.on_frame_start(frame_index);
                if arrived > 0 {
                    dbuf.push_burst(now, arrived);
                    out.data_packets_arrived = arrived;
                }
            }
            if frame_index < *active_from {
                vbuf.clear();
                dbuf.clear();
                *talk = false;
                out = FrameTraffic::default();
            }
            *boundary =
                Self::boundary_for(vsrc, dsrc, vbuf, *active_from, frame_index + 1, frame_us);
            totals.voice_generated += out.voice_packet_generated as u64;
            totals.voice_dropped += out.voice_packets_dropped as u64;
            totals.data_arrived += out.data_packets_arrived as u64;
            *slot = out;
        }
        totals
    }

    /// Terminal `i`'s true instantaneous SNR at time `t` (advances the
    /// fading processes as needed; memoised per instant in lazy mode).
    pub fn true_snr_db(&mut self, i: usize, t: SimTime) -> f64 {
        unsafe { self.view().true_snr_db(i, t) }
    }

    /// The terminal's service class.
    pub fn class(&self, i: usize) -> TerminalClass {
        self.class[i]
    }

    /// Whether the terminal is currently in a talkspurt.
    pub fn in_talkspurt(&self, i: usize) -> bool {
        self.in_talkspurt[i]
    }

    /// Whether the terminal participates in the given frame.
    pub fn is_active_at(&self, i: usize, frame_index: u64) -> bool {
        frame_index >= self.active_from_frame[i]
    }

    /// Number of voice packets waiting in the transmit buffer.
    pub fn voice_backlog(&self, i: usize) -> usize {
        self.voice_buffer[i].len()
    }

    /// Number of data packets waiting in the transmit buffer.
    pub fn data_backlog(&self, i: usize) -> u64 {
        self.data_buffer[i].len()
    }

    /// Whether the terminal has anything to send.
    pub fn has_backlog(&self, i: usize) -> bool {
        !self.voice_buffer[i].is_empty() || !self.data_buffer[i].is_empty()
    }

    /// Earliest deadline among buffered voice packets.
    pub fn earliest_voice_deadline(&self, i: usize) -> Option<SimTime> {
        self.voice_buffer[i].earliest_deadline()
    }

    /// Arrival time of the oldest buffered data packet.
    pub fn oldest_data_arrival(&self, i: usize) -> Option<SimTime> {
        self.data_buffer[i].head_arrival()
    }

    /// Mutable access to the voice buffer (transmission engine, tests).
    pub fn voice_buffer_mut(&mut self, i: usize) -> &mut VoiceBuffer {
        &mut self.voice_buffer[i]
    }

    /// Mutable access to the data buffer (transmission engine, tests).
    pub fn data_buffer_mut(&mut self, i: usize) -> &mut DataBuffer {
        &mut self.data_buffer[i]
    }

    /// The contention random stream (permission probability, slot choice).
    pub fn contention_rng(&mut self, i: usize) -> &mut Xoshiro256StarStar {
        &mut self.contention_rng[i]
    }

    /// The packet-error random stream.
    pub fn phy_rng(&mut self, i: usize) -> &mut Xoshiro256StarStar {
        &mut self.phy_rng[i]
    }

    /// Records terminal `i`'s serving link (see [`ColumnsView::record_link`]).
    pub(crate) fn record_link(&mut self, i: usize, distance_m: f64, shadow_db: f64) {
        assert!(self.path_loss.is_some(), "{NO_PATH_LOSS}");
        self.pending_link[i] = Some(PendingLink::new(distance_m, shadow_db));
    }

    /// Drops every buffered voice packet (hard-handoff link interruption or
    /// refused admission) and returns how many were lost.
    pub fn drop_buffered_voice(&mut self, i: usize) -> u32 {
        let n = self.voice_buffer[i].len() as u32;
        self.voice_buffer[i].clear();
        n
    }
}

/// Raw handle over the columns of a [`TerminalColumns`] store: one base
/// pointer per column plus the shared clock/channel-mode scalars.
///
/// # Soundness contract
///
/// A `ColumnsView` is a *claim of partitioned exclusivity*, exactly like the
/// sharded grid that copies it into worker threads: whoever holds a copy may
/// only touch element `i` if it has exclusive access to terminal `i` for the
/// duration of the call.  The system layer guarantees this through the cell
/// membership partition (every terminal belongs to exactly one cell per
/// frame; a worker only steps the cells it owns); the single-threaded paths
/// guarantee it by deriving the view from `&mut TerminalColumns`.  All
/// element operations bounds-check `i` (a plain `assert!`, kept in release
/// builds) so an out-of-partition index can corrupt determinism but never
/// memory-safety via out-of-bounds access.
///
/// Pointers stay valid while the originating store is alive and no terminal
/// is pushed; the store is fully populated before any view is taken.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColumnsView {
    len: usize,
    clock: FrameClock,
    channel_mode: ChannelMode,
    class: *mut TerminalClass,
    active_from_frame: *mut u64,
    in_talkspurt: *mut bool,
    traffic_boundary: *mut u64,
    voice_source: *mut Option<VoiceSource>,
    voice_buffer: *mut VoiceBuffer,
    data_source: *mut Option<DataSource>,
    data_buffer: *mut DataBuffer,
    mean_snr_db: *mut f64,
    path_loss: Option<PathLossConfig>,
    /// Dangling (never dereferenced) when `path_loss` is `None`.
    pending_link: *mut Option<PendingLink>,
    short: *mut ShortTermFading,
    long: *mut LongTermShadowing,
    chan_rng: *mut Xoshiro256StarStar,
    chan_now: *mut SimTime,
    snr_cache: *mut Option<(SimTime, f64)>,
    contention_rng: *mut Xoshiro256StarStar,
    phy_rng: *mut Xoshiro256StarStar,
}

// SAFETY: sending or sharing the view across threads is sound under the
// partitioned-exclusivity contract above; every element type is itself Send
// (asserted below), and the view performs no interior mutation beyond what
// the caller's partition licenses.
unsafe impl Send for ColumnsView {}
unsafe impl Sync for ColumnsView {}

// Compile-time proof that every column element is safe to hand to another
// thread (backs the unsafe Send/Sync impls above).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<TerminalClass>();
    assert_send::<u64>();
    assert_send::<bool>();
    assert_send::<Option<VoiceSource>>();
    assert_send::<VoiceBuffer>();
    assert_send::<Option<DataSource>>();
    assert_send::<DataBuffer>();
    assert_send::<f64>();
    assert_send::<ShortTermFading>();
    assert_send::<LongTermShadowing>();
    assert_send::<Xoshiro256StarStar>();
    assert_send::<SimTime>();
    assert_send::<Option<(SimTime, f64)>>();
    assert_send::<Option<PendingLink>>();
    assert_send::<FrameClock>();
};

impl ColumnsView {
    /// Number of terminals behind the view.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn check(&self, i: usize) {
        assert!(
            i < self.len,
            "terminal index {i} out of bounds ({})",
            self.len
        );
    }

    /// Advances terminal `i`'s traffic across the boundary that starts
    /// `frame_index`, updating the buffers, and reports what happened.
    /// Deadline-expired voice packets are dropped here (and reported),
    /// exactly once per frame.
    ///
    /// # Safety
    /// Caller must have exclusive access to terminal `i` (see the type-level
    /// soundness contract).
    pub(crate) unsafe fn begin_frame(&self, i: usize, frame_index: u64) -> FrameTraffic {
        let now = self.clock.frame_start(frame_index);
        self.begin_frame_at(i, frame_index, now)
    }

    /// [`Self::begin_frame`] with the frame-start instant precomputed, so the
    /// all-terminals sweep evaluates the clock once per frame rather than once
    /// per terminal.
    ///
    /// # Safety
    /// Exclusive access to terminal `i`; `now` must equal
    /// `self.clock.frame_start(frame_index)`.
    #[inline]
    unsafe fn begin_frame_at(&self, i: usize, frame_index: u64, now: SimTime) -> FrameTraffic {
        self.check(i);
        // Lazy mode leaves the channel untouched here: it is advanced (with a
        // coalesced dt) the first time this frame's SNR is sampled, so idle
        // terminals skip channel work entirely.
        if self.channel_mode == ChannelMode::Eager {
            self.advance_channel_eager(i, now);
            *self.snr_cache.add(i) = None;
        }

        // Frames strictly before the traffic boundary are total no-ops: the
        // source calls would be no-ops (no state change, no draw), the expiry
        // check could drop nothing (the boundary covers the earliest buffered
        // deadline), dormancy has no edge there, and `in_talkspurt` cannot
        // change — skipping them is behaviour-for-behaviour identical.
        if frame_index < *self.traffic_boundary.add(i) {
            return FrameTraffic::default();
        }

        let voice_buffer = &mut *self.voice_buffer.add(i);
        let mut out = FrameTraffic {
            // Deadline enforcement happens before new packets arrive so a packet
            // generated at this boundary can never be dropped at the same boundary.
            voice_packets_dropped: voice_buffer.drop_expired(now) as u32,
            ..FrameTraffic::default()
        };

        if let Some(src) = (*self.voice_source.add(i)).as_mut() {
            let activity = src.on_frame_start(frame_index);
            *self.in_talkspurt.add(i) = src.is_talking();
            out.talkspurt_started = activity.talkspurt_started;
            out.talkspurt_ended = activity.talkspurt_ended;
            if activity.packet_generated {
                let deadline = src.deadline_for(frame_index);
                voice_buffer.push(VoicePacket {
                    generated_at: now,
                    deadline,
                });
                out.voice_packet_generated = true;
            }
        }

        if let Some(src) = (*self.data_source.add(i)).as_mut() {
            let arrived = src.on_frame_start(frame_index);
            if arrived > 0 {
                (*self.data_buffer.add(i)).push_burst(now, arrived);
                out.data_packets_arrived = arrived;
            }
        }

        // A dormant terminal (activated mid-run by a load ramp) advances its
        // sources exactly like an active one so the per-terminal RNG streams
        // stay aligned, but its traffic is discarded: nothing is buffered,
        // nothing is reported, and it never looks like a contender.  From the
        // activation frame onward it behaves draw-for-draw like an
        // always-active twin — a terminal woken mid-talkspurt buffers that
        // talkspurt's remaining packets (and contends for them) immediately.
        let active_from = *self.active_from_frame.add(i);
        if frame_index < active_from {
            voice_buffer.clear();
            (*self.data_buffer.add(i)).clear();
            *self.in_talkspurt.add(i) = false;
            out = FrameTraffic::default();
        }

        *self.traffic_boundary.add(i) = TerminalColumns::boundary_for(
            &*self.voice_source.add(i),
            &*self.data_source.add(i),
            voice_buffer,
            active_from,
            frame_index + 1,
            self.clock.frame_duration().as_micros(),
        );

        out
    }

    /// Advances terminal `i`'s channel to `t` in one coalesced AR(1) step per
    /// process (short first, then long — the documented draw order), reusing
    /// memoised step coefficients.  Panics if `t` is in the past.
    ///
    /// # Safety
    /// Exclusive access to terminal `i`.
    unsafe fn advance_channel(&self, i: usize, t: SimTime) {
        let now = &mut *self.chan_now.add(i);
        assert!(
            t >= *now,
            "channel cannot be advanced backwards (now {}, asked {t})",
            *now
        );
        let dt = t.duration_since(*now);
        if dt.is_zero() {
            return;
        }
        let rng = &mut *self.chan_rng.add(i);
        (*self.short.add(i)).step(dt, rng);
        (*self.long.add(i)).step(dt, rng);
        *now = t;
    }

    /// Eager-mode channel advance: same draws, coefficients recomputed every
    /// call (the pre-optimisation baseline the benchmark measures against).
    ///
    /// # Safety
    /// Exclusive access to terminal `i`.
    unsafe fn advance_channel_eager(&self, i: usize, t: SimTime) {
        let now = &mut *self.chan_now.add(i);
        assert!(
            t >= *now,
            "channel cannot be advanced backwards (now {}, asked {t})",
            *now
        );
        let dt = t.duration_since(*now);
        if dt.is_zero() {
            return;
        }
        let rng = &mut *self.chan_rng.add(i);
        (*self.short.add(i)).step_uncached(dt, rng);
        (*self.long.add(i)).step_uncached(dt, rng);
        *now = t;
    }

    /// The SNR implied by terminal `i`'s current fading state: the mean SNR
    /// plus the combined gain in dB, with deep fades clamped at -240 dB so
    /// downstream arithmetic stays well defined.  (Same operations, in the
    /// same order, as the pre-SoA `CombinedChannel::snr_db`.)
    ///
    /// # Safety
    /// Shared access to terminal `i` suffices (no mutation).
    unsafe fn snr_db(&self, i: usize) -> f64 {
        let g = (*self.long.add(i)).local_mean_linear() * (*self.short.add(i)).envelope();
        let gain_db = if g <= 1e-12 { -240.0 } else { 20.0 * g.log10() };
        *self.mean_snr_db.add(i) + gain_db
    }

    /// Folds terminal `i`'s pending serving link, if any, into its mean SNR:
    /// `path_loss.mean_snr_db(d) + shadow_db`, evaluated on the latest
    /// recorded link exactly as the system layer would have evaluated it at
    /// the write.  A no-op for stores without a path-loss profile and for
    /// terminals already folded since their last write.
    ///
    /// # Safety
    /// Exclusive access to terminal `i`.
    #[inline]
    unsafe fn fold_pending_link(&self, i: usize) {
        let Some(path_loss) = &self.path_loss else {
            return;
        };
        if let Some(link) = (*self.pending_link.add(i)).take() {
            *self.mean_snr_db.add(i) = link.mean_snr_db(path_loss);
        }
    }

    /// Terminal `i`'s true instantaneous SNR at time `t`.
    ///
    /// The first evaluation after the system layer recorded a new serving
    /// link folds that link into the mean SNR first.
    ///
    /// In [`ChannelMode::Lazy`] (the default) the value is memoised per
    /// instant, so capacity, the error-probability draw and CSI polling all
    /// share one channel evaluation per terminal per frame, and the channel
    /// itself is advanced in one coalesced step covering every frame the
    /// terminal sat idle.  In [`ChannelMode::Eager`] the SNR is recomputed on
    /// every call, reproducing the pre-optimisation cost.
    ///
    /// # Safety
    /// Exclusive access to terminal `i`.
    pub(crate) unsafe fn true_snr_db(&self, i: usize, t: SimTime) -> f64 {
        self.check(i);
        match self.channel_mode {
            ChannelMode::Lazy => {
                let cache = &mut *self.snr_cache.add(i);
                if let Some((at, snr)) = *cache {
                    if at == t {
                        return snr;
                    }
                }
                self.advance_channel(i, t);
                self.fold_pending_link(i);
                let snr = self.snr_db(i);
                *cache = Some((t, snr));
                snr
            }
            ChannelMode::Eager => {
                self.advance_channel(i, t);
                self.fold_pending_link(i);
                self.snr_db(i)
            }
        }
    }

    /// The terminal's service class.
    ///
    /// # Safety
    /// Shared access to terminal `i` (the class column is immutable after
    /// construction).
    pub(crate) unsafe fn class(&self, i: usize) -> TerminalClass {
        self.check(i);
        *self.class.add(i)
    }

    /// Whether the terminal is currently in a talkspurt.
    ///
    /// # Safety
    /// Shared access to terminal `i`.
    pub(crate) unsafe fn in_talkspurt(&self, i: usize) -> bool {
        self.check(i);
        *self.in_talkspurt.add(i)
    }

    /// Number of voice packets waiting in the transmit buffer.
    ///
    /// # Safety
    /// Shared access to terminal `i`.
    pub(crate) unsafe fn voice_backlog(&self, i: usize) -> usize {
        self.check(i);
        (*self.voice_buffer.add(i)).len()
    }

    /// Number of data packets waiting in the transmit buffer.
    ///
    /// # Safety
    /// Shared access to terminal `i`.
    pub(crate) unsafe fn data_backlog(&self, i: usize) -> u64 {
        self.check(i);
        (*self.data_buffer.add(i)).len()
    }

    /// Whether the terminal has anything to send.
    ///
    /// # Safety
    /// Shared access to terminal `i`.
    pub(crate) unsafe fn has_backlog(&self, i: usize) -> bool {
        self.check(i);
        !(*self.voice_buffer.add(i)).is_empty() || !(*self.data_buffer.add(i)).is_empty()
    }

    /// Earliest deadline among buffered voice packets.
    ///
    /// # Safety
    /// Shared access to terminal `i`.
    pub(crate) unsafe fn earliest_voice_deadline(&self, i: usize) -> Option<SimTime> {
        self.check(i);
        (*self.voice_buffer.add(i)).earliest_deadline()
    }

    /// Arrival time of the oldest buffered data packet.
    ///
    /// # Safety
    /// Shared access to terminal `i`.
    pub(crate) unsafe fn oldest_data_arrival(&self, i: usize) -> Option<SimTime> {
        self.check(i);
        (*self.data_buffer.add(i)).head_arrival()
    }

    /// Mutable access to the voice buffer.
    ///
    /// # Safety
    /// Exclusive access to terminal `i`.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn voice_buffer_mut(&self, i: usize) -> &mut VoiceBuffer {
        self.check(i);
        &mut *self.voice_buffer.add(i)
    }

    /// Mutable access to the data buffer.
    ///
    /// # Safety
    /// Exclusive access to terminal `i`.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn data_buffer_mut(&self, i: usize) -> &mut DataBuffer {
        self.check(i);
        &mut *self.data_buffer.add(i)
    }

    /// The contention random stream (permission probability, slot choice).
    ///
    /// # Safety
    /// Exclusive access to terminal `i`.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn contention_rng(&self, i: usize) -> &mut Xoshiro256StarStar {
        self.check(i);
        &mut *self.contention_rng.add(i)
    }

    /// The packet-error random stream.
    ///
    /// # Safety
    /// Exclusive access to terminal `i`.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn phy_rng(&self, i: usize) -> &mut Xoshiro256StarStar {
        self.check(i);
        &mut *self.phy_rng.add(i)
    }

    /// Records terminal `i`'s serving link — the distance to its serving base
    /// station and the site shadow of that attachment — replacing any link
    /// not yet folded.  The next channel evaluation folds it into the mean
    /// SNR, so a terminal whose channel is not read pays no path loss.
    /// Panics if the store carries no path-loss profile or the distance is
    /// negative or not finite.
    ///
    /// # Safety
    /// Exclusive access to terminal `i`.
    pub(crate) unsafe fn record_link(&self, i: usize, distance_m: f64, shadow_db: f64) {
        self.check(i);
        // Without a profile `pending_link` is dangling: this check is what
        // keeps the write below in bounds.
        assert!(self.path_loss.is_some(), "{NO_PATH_LOSS}");
        *self.pending_link.add(i) = Some(PendingLink::new(distance_m, shadow_db));
    }

    /// Drops every buffered voice packet of terminal `i` and returns how
    /// many were lost (hard-handoff link interruption / refused admission).
    ///
    /// # Safety
    /// Exclusive access to terminal `i`.
    pub(crate) unsafe fn drop_buffered_voice(&self, i: usize) -> u32 {
        self.check(i);
        let buffer = &mut *self.voice_buffer.add(i);
        let n = buffer.len() as u32;
        buffer.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LoadRamp;
    use charisma_des::SimDuration;
    use charisma_radio::{ChannelConfig, SpeedProfile};

    /// A quick-test population of `num_voice` voice then `num_data` data
    /// terminals in one cell.
    fn config(num_voice: u32, num_data: u32, seed: u64, mode: ChannelMode) -> SimConfig {
        SimConfig {
            num_voice,
            num_data,
            seed,
            channel_mode: mode,
            ..SimConfig::quick_test()
        }
    }

    /// Builds every terminal of `config`'s single cell into a store.
    fn build(config: &SimConfig, path_loss: Option<PathLossConfig>) -> TerminalColumns {
        let n = config.num_voice + config.num_data;
        let streams = RngStreams::new(config.seed);
        let mut cols = TerminalColumns::new(config, n as usize, path_loss);
        for local in 0..n {
            cols.push_terminal(config, &streams, 0, local);
        }
        cols
    }

    /// A store holding one terminal of `class`.
    fn make_mode(class: TerminalClass, seed: u64, mode: ChannelMode) -> TerminalColumns {
        let (voice, data) = match class {
            TerminalClass::Voice => (1, 0),
            TerminalClass::Data => (0, 1),
        };
        build(&config(voice, data, seed, mode), None)
    }

    fn make(class: TerminalClass, seed: u64) -> TerminalColumns {
        make_mode(class, seed, ChannelMode::Lazy)
    }

    /// One voice terminal that stays dormant until `activation_frame`.
    fn dormant(seed: u64, activation_frame: u64) -> TerminalColumns {
        let mut cfg = config(1, 0, seed, ChannelMode::Lazy);
        cfg.ramp = Some(LoadRamp {
            initial_voice: 0,
            activation_frame,
        });
        build(&cfg, None)
    }

    #[test]
    fn construction_sets_class_and_identity() {
        let v = make(TerminalClass::Voice, 1);
        assert_eq!(v.len(), 1, "the first terminal is slot 0, TerminalId(0)");
        assert_eq!(v.class(0), TerminalClass::Voice);
        assert!(v.is_active_at(0, 0));
        let d = make(TerminalClass::Data, 1);
        assert_eq!(d.class(0), TerminalClass::Data);
        assert!(!d.in_talkspurt(0), "data terminals never talk");
        // Voice first: the ids after `num_voice` are the data terminals.
        let both = build(&config(1, 1, 1, ChannelMode::Lazy), None);
        assert_eq!(both.class(0), TerminalClass::Voice);
        assert_eq!(both.class(1), TerminalClass::Data);
    }

    #[test]
    fn load_ramp_defers_activation() {
        let t = dormant(2, 4_000);
        assert!(!t.is_active_at(0, 0));
        assert!(!t.is_active_at(0, 3_999));
        assert!(t.is_active_at(0, 4_000));
        // Only the voice terminals from `initial_voice` on are deferred.
        let mut cfg = config(2, 1, 2, ChannelMode::Lazy);
        cfg.ramp = Some(LoadRamp {
            initial_voice: 1,
            activation_frame: 4_000,
        });
        let cols = build(&cfg, None);
        assert!(cols.is_active_at(0, 0));
        assert!(!cols.is_active_at(1, 3_999));
        assert!(cols.is_active_at(2, 0), "data terminals never ramp");
    }

    #[test]
    fn into_parts_preserves_identity_and_streams() {
        let t = dormant(3, 17);
        assert_eq!(t.len(), 1);
        assert_eq!(t.class[0], TerminalClass::Voice);
        assert_eq!(t.active_from_frame[0], 17);
        let source = t.voice_source[0].as_ref().expect("a voice source");
        assert_eq!(t.in_talkspurt[0], source.is_talking());
        assert!(t.data_source[0].is_none());
        assert_eq!(t.mean_snr_db[0], ChannelConfig::default().mean_snr_db);
        assert_eq!(t.chan_now[0], SimTime::ZERO);
    }

    #[test]
    fn mobility_speed_comes_from_the_reserved_protocol_stream() {
        // Two seeds give different sampled speeds under a random profile,
        // pinning that the speed draw really consumes the mirrored
        // DOMAIN_PROTOCOL stream (a fixed profile ignores the draw).
        let speed = SpeedProfile::Uniform {
            min_kmh: 10.0,
            max_kmh: 90.0,
        };
        let mk = |seed: u64| {
            let cfg = SimConfig {
                speed,
                ..config(1, 0, seed, ChannelMode::Lazy)
            };
            let streams = RngStreams::new(seed);
            let mut cols = TerminalColumns::new(&cfg, 1, None);
            let mobility = cols.push_terminal(&cfg, &streams, 0, 0);
            let mut rng = streams.stream(StreamId::new(StreamId::DOMAIN_PROTOCOL, 0x8000_0000));
            assert_eq!(mobility.speed_kmh, speed.sample(&mut rng));
            mobility
        };
        let a = mk(100).speed_kmh;
        let b = mk(101).speed_kmh;
        assert_ne!(a, b, "speed should depend on the scenario seed");
    }

    #[test]
    fn voice_terminal_generates_and_drops_packets() {
        let mut t = make(TerminalClass::Voice, 1);
        let mut generated = 0u64;
        let mut dropped = 0u64;
        for k in 0..80_000u64 {
            let tr = t.begin_frame(0, k);
            generated += tr.voice_packet_generated as u64;
            dropped += tr.voice_packets_dropped as u64;
            assert_eq!(
                tr.data_packets_arrived, 0,
                "voice terminal must not produce data"
            );
        }
        assert!(
            generated > 1_000,
            "expected many voice packets, got {generated}"
        );
        // Nothing is ever transmitted in this test, so every packet must
        // eventually be dropped at its deadline (modulo those still queued).
        assert!(
            dropped >= generated - 2,
            "generated {generated}, dropped {dropped}"
        );
        assert!(t.voice_backlog(0) <= 2);
    }

    #[test]
    fn data_terminal_accumulates_backlog() {
        let mut t = make(TerminalClass::Data, 2);
        let mut arrived = 0u64;
        for k in 0..40_000u64 {
            let tr = t.begin_frame(0, k);
            arrived += tr.data_packets_arrived as u64;
            assert!(!tr.voice_packet_generated);
        }
        assert!(arrived > 1_000, "expected data arrivals, got {arrived}");
        assert_eq!(
            t.data_backlog(0),
            arrived,
            "nothing was served, backlog must equal arrivals"
        );
        assert!(t.has_backlog(0));
    }

    #[test]
    fn channel_is_queryable_at_frame_times() {
        let mut t = make(TerminalClass::Voice, 3);
        t.begin_frame(0, 0);
        let s0 = t.true_snr_db(0, SimTime::ZERO);
        let s1 = t.true_snr_db(0, SimTime::ZERO + SimDuration::from_micros(2_500));
        assert!(s0.is_finite() && s1.is_finite());
    }

    #[test]
    fn talkspurt_flag_tracks_source() {
        let mut t = make(TerminalClass::Voice, 4);
        let mut toggles = 0;
        let mut last = t.in_talkspurt(0);
        for k in 0..200_000u64 {
            t.begin_frame(0, k);
            if t.in_talkspurt(0) != last {
                toggles += 1;
                last = t.in_talkspurt(0);
            }
        }
        assert!(
            toggles > 50,
            "talkspurt state should toggle many times, saw {toggles}"
        );
    }

    #[test]
    fn identical_seeds_produce_identical_terminals() {
        let mut a = make(TerminalClass::Voice, 9);
        let mut b = make(TerminalClass::Voice, 9);
        for k in 0..5_000u64 {
            assert_eq!(a.begin_frame(0, k), b.begin_frame(0, k));
        }
        let t = SimTime::from_micros(5_000 * 2_500);
        assert_eq!(a.true_snr_db(0, t), b.true_snr_db(0, t));
    }

    #[test]
    fn snr_is_cached_within_an_instant_and_refreshed_across_frames() {
        let mut t = make(TerminalClass::Voice, 11);
        t.begin_frame(0, 0);
        let at = SimTime::ZERO;
        let first = t.true_snr_db(0, at);
        // Repeated queries at the same instant must return the exact same
        // value without touching the channel RNG.
        for _ in 0..5 {
            assert_eq!(t.true_snr_db(0, at), first);
        }
        // A later frame re-samples the channel.
        t.begin_frame(0, 1);
        let later = t.true_snr_db(0, SimTime::from_micros(2_500));
        assert_ne!(later, first, "a new frame must refresh the cached SNR");
        assert_eq!(t.true_snr_db(0, SimTime::from_micros(2_500)), later);
    }

    #[test]
    fn eager_and_lazy_terminals_see_statistically_similar_channels() {
        // The two modes draw different sample paths (documented one-time
        // trajectory change) but must agree on the channel statistics.
        let mean_snr = |mode: ChannelMode| -> f64 {
            let mut t = make_mode(TerminalClass::Voice, 12, mode);
            let mut acc = 0.0;
            let n = 40_000u64;
            for k in 0..n {
                t.begin_frame(0, k);
                // Sample only every 10th frame: in lazy mode the intervening
                // frames are coalesced into one AR(1) step.
                if k % 10 == 0 {
                    acc += t.true_snr_db(0, SimTime::from_micros(k * 2_500));
                }
            }
            acc / (n / 10) as f64
        };
        let eager = mean_snr(ChannelMode::Eager);
        let lazy = mean_snr(ChannelMode::Lazy);
        assert!(
            (eager - lazy).abs() < 1.0,
            "eager mean SNR {eager} dB vs lazy {lazy} dB"
        );
    }

    #[test]
    fn dormant_terminal_reports_nothing_then_wakes_up() {
        let mut t = dormant(21, 4_000);
        for k in 0..4_000u64 {
            assert!(!t.is_active_at(0, k));
            let tr = t.begin_frame(0, k);
            assert_eq!(tr, FrameTraffic::default(), "dormant frame {k} had traffic");
            assert!(!t.in_talkspurt(0));
            assert!(!t.has_backlog(0));
        }
        let mut generated = 0u64;
        for k in 4_000..80_000u64 {
            assert!(t.is_active_at(0, k));
            generated += t.begin_frame(0, k).voice_packet_generated as u64;
        }
        assert!(generated > 1_000, "woken terminal generated {generated}");
    }

    #[test]
    fn dormant_prefix_does_not_change_the_post_activation_sample_path() {
        // The whole point of advancing sources while dormant: after the
        // activation frame the terminal behaves draw-for-draw like an
        // always-active twin.
        let mut active = make(TerminalClass::Voice, 22);
        let mut ramped = dormant(22, 2_000);
        for k in 0..2_000u64 {
            let _ = active.begin_frame(0, k);
            let _ = ramped.begin_frame(0, k);
        }
        // Drain the always-active twin's backlog so the buffers agree.
        while active.voice_buffer_mut(0).pop().is_some() {}
        for k in 2_000..10_000u64 {
            assert_eq!(
                active.begin_frame(0, k),
                ramped.begin_frame(0, k),
                "frame {k}"
            );
        }
    }

    #[test]
    fn different_terminal_ids_get_different_traffic() {
        let mut cols = build(&config(2, 0, 7, ChannelMode::Lazy), None);
        let mut differing = 0;
        for k in 0..10_000u64 {
            if cols.begin_frame(0, k) != cols.begin_frame(1, k) {
                differing += 1;
            }
        }
        assert!(
            differing > 100,
            "two terminals should have distinct traffic, {differing} frames differed"
        );
    }

    #[test]
    fn pending_link_fold_matches_eager_path_loss_bit_for_bit() {
        // Brute-force reference for the lazy serving link: one store
        // evaluates the path loss at every write, its twin records the link
        // and folds it at the first channel read.  Distances below the
        // reference distance exercise the near-field clamp; zero to two
        // writes per frame cover the drain/roam/merge re-writes and frames
        // whose link is already folded.
        let pl = PathLossConfig::default();
        let n = 4u32;
        for mode in [ChannelMode::Lazy, ChannelMode::Eager] {
            let cfg = config(n / 2, n / 2, 41, mode);
            let clock = cfg.clock();
            let frame_us = clock.frame_duration().as_micros();
            let mut eager = build(&cfg, None);
            let mut lazy = build(&cfg, Some(pl));
            assert_eq!(
                eager.pending_link.capacity(),
                0,
                "a store without a path-loss profile allocates no pending links"
            );
            let mut rng = Xoshiro256StarStar::from_seed_u64(5);
            let (mut reads, mut clamped) = (0u64, 0u64);
            for k in 0..3_000u64 {
                for i in 0..n as usize {
                    assert_eq!(eager.begin_frame(i, k), lazy.begin_frame(i, k));
                    for _ in 0..(3.0 * rng.next_f64()) as u64 {
                        let d = if rng.next_f64() < 0.2 {
                            rng.next_f64() * pl.reference_distance_m
                        } else {
                            rng.next_f64() * 1_500.0
                        };
                        clamped += (d < pl.reference_distance_m) as u64;
                        let shadow_db = pl.draw_site_shadow_db(&mut rng);
                        eager.mean_snr_db[i] = pl.mean_snr_db(d) + shadow_db;
                        lazy.record_link(i, d, shadow_db);
                    }
                    if rng.next_f64() < 0.3 {
                        // One to three reads at non-decreasing instants of
                        // the frame, repeats included (the lazy memo).
                        let mut t = clock.frame_start(k);
                        for _ in 0..1 + (3.0 * rng.next_f64()) as u64 {
                            let step = (rng.next_f64() * (frame_us / 4) as f64) as u64;
                            t += SimDuration::from_micros(step);
                            let want = eager.true_snr_db(i, t);
                            let got = lazy.true_snr_db(i, t);
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{mode:?} frame {k} terminal {i}: {got} vs {want}"
                            );
                            reads += 1;
                        }
                    }
                }
            }
            assert!(reads > 5_000, "{mode:?}: only {reads} reads");
            assert!(
                clamped > 1_000,
                "{mode:?}: only {clamped} clamped distances"
            );
        }
    }

    #[test]
    fn columnar_begin_frame_all_matches_per_terminal_calls() {
        let cfg = config(3, 3, 33, ChannelMode::Lazy);
        let mut a = build(&cfg, None);
        let mut b = build(&cfg, None);
        let mut batched = vec![FrameTraffic::default(); 6];
        for k in 0..3_000u64 {
            a.begin_frame_all(k, &mut batched);
            for (i, slot) in batched.iter().enumerate() {
                assert_eq!(*slot, b.begin_frame(i, k), "frame {k} terminal {i}");
            }
        }
    }
}
