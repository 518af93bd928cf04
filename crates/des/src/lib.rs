//! # charisma-des — discrete-event simulation substrate
//!
//! This crate provides the simulation substrate on which the CHARISMA
//! reproduction is built:
//!
//! * [`time`] — a microsecond-resolution simulation clock ([`SimTime`],
//!   [`SimDuration`]) with exact integer arithmetic, so frame and slot
//!   boundaries never drift due to floating-point rounding.
//! * [`rng`] — deterministic, splittable random-number streams
//!   ([`Xoshiro256StarStar`], [`RngStreams`]).  Every simulated entity
//!   (terminal, channel, protocol) owns an independent stream derived from a
//!   single scenario seed, which makes every experiment bit-for-bit
//!   reproducible and embarrassingly parallel across sweep points.
//! * [`dist`] — the random variates the paper's models need (exponential
//!   talkspurts, Rayleigh fading envelopes, log-normal shadowing, Bernoulli
//!   permission probabilities) implemented directly on top of the uniform
//!   generator, so no external distribution crate is required.
//! * [`clock`] — the TDMA frame clock: conversions between simulation time,
//!   frame indices and slot indices for a fixed frame duration (2.5 ms in the
//!   paper).
//!
//! The substrate is intentionally protocol-agnostic: the MAC layer in the
//! `charisma` crate drives a frame-synchronous loop over these primitives.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod dist;
pub mod rng;
pub mod time;

pub use clock::{FrameClock, SlotPosition};
pub use dist::Sampler;
pub use rng::{RngStreams, SplitMix64, StreamId, Xoshiro256StarStar};
pub use time::{SimDuration, SimTime};
