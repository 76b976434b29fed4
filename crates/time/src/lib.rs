//! # tbm-time — exact time arithmetic for time-based media
//!
//! This crate provides the temporal substrate for the timed-stream data model
//! of Gibbs, Breiteneder and Tsichritzis (*Data Modeling of Time-Based Media*,
//! SIGMOD 1994). The paper's Definition 2 introduces *discrete time systems*
//! `D_f : i ↦ (1/f)·i` mapping integer *discrete time values* to continuous
//! time in seconds. Media timing must be exact — NTSC video runs at
//! 30000/1001 frames per second and any floating-point representation of that
//! rate accumulates drift — so everything here is built on reduced
//! [`Rational`] arithmetic.
//!
//! Contents:
//!
//! * [`Rational`] — reduced `i64/i64` rationals with overflow-checked
//!   arithmetic that cancels common factors before it multiplies, using one
//!   64-bit binary gcd; `i128` holds only the products, and an operation
//!   overflows exactly when its reduced result leaves `i64/i64`.
//! * [`TimeSystem`] — Definition 2's `D_f`, with exact tick↔seconds and
//!   tick↔tick conversion between systems.
//! * [`TimePoint`] / [`TimeDelta`] — continuous time values in seconds.
//! * [`Interval`] — half-open temporal intervals with the full Allen
//!   interval-relation algebra ([`AllenRelation`]).
//! * [`Timecode`] — presentation formatting (`H:MM:SS.mmm` and SMPTE-style
//!   `HH:MM:SS:FF`).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod allen;
mod error;
mod interval;
mod point;
mod rational;
mod system;
mod timecode;

pub use allen::AllenRelation;
pub use error::TimeError;
pub use interval::Interval;
pub use point::{TimeDelta, TimePoint};
pub use rational::Rational;
pub use system::TimeSystem;
pub use timecode::Timecode;
