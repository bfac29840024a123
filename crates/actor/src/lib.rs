//! # sb-actor — a threaded asynchronous runtime for block programs
//!
//! The discrete-event simulator (`sb-desim`) executes block codes in a
//! single thread with simulated message latencies.  This crate offers the
//! complementary execution model: **every block is a real OS thread** with
//! a crossbeam channel as its mailbox, so message interleavings come from
//! genuine concurrency rather than from a seeded scheduler.  Running the
//! distributed election on both runtimes and checking that the outcome
//! agrees is one of the strongest validation tools of this reproduction
//! (the paper's Assumption 3 — communications complete in finite time but
//! with no bound — is exactly the regime a thread scheduler provides).
//!
//! The design mirrors `sb-desim` on purpose:
//!
//! * [`Actor`] — the per-block program (same shape as `BlockCode`).
//! * [`ActorContext`] — message sending, access to the shared world
//!   (behind a [`parking_lot::Mutex`]), stop requests.
//! * [`ActorSystem`] — registration, thread spawning, graceful shutdown,
//!   statistics.
//!
//! ## Example
//!
//! ```
//! use sb_actor::{Actor, ActorContext, ActorId, ActorSystem};
//! use std::time::Duration;
//!
//! struct Echo;
//! impl Actor<u32, Vec<u32>> for Echo {
//!     fn on_start(&mut self, ctx: &mut ActorContext<'_, u32, Vec<u32>>) {
//!         if ctx.self_id() == ActorId(0) {
//!             ctx.send(ActorId(1), 41);
//!         }
//!     }
//!     fn on_message(&mut self, from: ActorId, msg: u32,
//!                   ctx: &mut ActorContext<'_, u32, Vec<u32>>) {
//!         ctx.with_world(|w| w.push(msg + 1));
//!         if msg == 41 { ctx.send(from, 42); } else { ctx.request_stop(); }
//!     }
//! }
//!
//! let mut system = ActorSystem::new(Vec::new());
//! system.add_actor(Echo);
//! system.add_actor(Echo);
//! let report = system.run(Duration::from_secs(5));
//! assert!(report.stopped);
//! assert_eq!(report.world.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod system;

pub use context::{Actor, ActorContext, ActorId, VisualState, VISUAL_NEUTRAL};
pub use system::{ActorRunReport, ActorSystem};
