//! Actors and their execution context.

use crossbeam::channel::Sender;
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Identifier of an actor in an [`crate::ActorSystem`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub usize);

impl ActorId {
    /// The underlying index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// One item carried by the mailbox channels: a peer message or an
/// expired timer.  Timers share the mailbox so `on_message` and
/// `on_timer` callbacks of one actor are serialised by construction,
/// exactly like the simulator's event queue.
#[derive(Debug)]
pub(crate) enum MailItem<M> {
    /// A message from another actor.
    Message { from: ActorId, payload: M },
    /// A timer armed through [`ActorContext::set_timer`] has expired.
    Timer { tag: u64 },
}

/// A request to the system's timer thread: deliver
/// `MailItem::Timer { tag }` to `actor` at `deadline`.
#[derive(Debug)]
pub(crate) struct TimerRequest {
    pub actor: ActorId,
    pub deadline: Instant,
    pub tag: u64,
}

/// An RGB visual state, mirroring `sb-desim`'s block colours (the
/// VisibleSim `setColor` debugging facility).  Kept as a plain tuple so
/// `sb-actor` stays independent of the simulator crate; the default is
/// neutral grey `(128, 128, 128)`, matching the simulator's `GREY`.
pub type VisualState = (u8, u8, u8);

/// The neutral grey every actor starts in.
pub const VISUAL_NEUTRAL: VisualState = (128, 128, 128);

/// State shared by every actor thread.
pub(crate) struct Shared<M, W> {
    pub world: Mutex<W>,
    pub mailboxes: Vec<Sender<MailItem<M>>>,
    pub visuals: Mutex<Vec<VisualState>>,
    pub stop: AtomicBool,
    pub messages_sent: AtomicU64,
    pub messages_delivered: AtomicU64,
    /// Requests to the system's timer thread.
    pub timers: Sender<TimerRequest>,
}

impl<M, W> Shared<M, W> {
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// The per-block program executed by an actor thread.
///
/// `M` is the message type, `W` the shared world protected by a mutex.
pub trait Actor<M, W>: Send {
    /// Called once when the system starts, before any message is
    /// delivered to this actor.
    fn on_start(&mut self, ctx: &mut ActorContext<'_, M, W>) {
        let _ = ctx;
    }

    /// Called for every message delivered to this actor's mailbox.
    fn on_message(&mut self, from: ActorId, msg: M, ctx: &mut ActorContext<'_, M, W>);

    /// Called when a timer armed through [`ActorContext::set_timer`]
    /// fires; `tag` is the value passed when the timer was armed.  The
    /// callback runs on the actor's own thread, serialised with
    /// `on_message` through the mailbox.
    fn on_timer(&mut self, tag: u64, ctx: &mut ActorContext<'_, M, W>) {
        let _ = (tag, ctx);
    }

    /// Called when the system shuts down (stop requested or timeout), so
    /// the actor can record final state into the world.
    fn on_stop(&mut self, ctx: &mut ActorContext<'_, M, W>) {
        let _ = ctx;
    }
}

/// Handle through which an actor interacts with the rest of the system.
pub struct ActorContext<'a, M, W> {
    pub(crate) shared: &'a Shared<M, W>,
    pub(crate) me: ActorId,
}

impl<'a, M, W> ActorContext<'a, M, W> {
    /// The actor currently executing.
    pub fn self_id(&self) -> ActorId {
        self.me
    }

    /// Number of actors in the system.
    pub fn actor_count(&self) -> usize {
        self.shared.mailboxes.len()
    }

    /// Sends a message to another actor's mailbox.  Delivery order between
    /// two given actors is FIFO (channel order); across actors it is
    /// whatever the OS scheduler produces — exactly the asynchrony the
    /// algorithm must tolerate.
    pub fn send(&mut self, to: ActorId, payload: M) {
        self.shared.messages_sent.fetch_add(1, Ordering::Relaxed);
        // A send to a stopped/full mailbox is silently dropped; this only
        // happens during shutdown.
        let _ = self.shared.mailboxes[to.index()].send(MailItem::Message {
            from: self.me,
            payload,
        });
    }

    /// Arms a one-shot timer: after `delay`, [`Actor::on_timer`] runs on
    /// this actor with the given `tag`, mirroring the simulator's
    /// `Context::set_timer`.  Timer deliveries go through the mailbox
    /// (serialised with messages) and are *not* counted as messages.
    /// Timers cannot be cancelled: an actor that no longer wants one
    /// ignores its `tag` when it fires.
    pub fn set_timer(&mut self, delay: Duration, tag: u64) {
        let _ = self.shared.timers.send(TimerRequest {
            actor: self.me,
            deadline: Instant::now() + delay,
            tag,
        });
    }

    /// Runs a closure with exclusive access to the shared world and
    /// returns its result.  Keeps the lock scope explicit and short.
    pub fn with_world<R>(&self, f: impl FnOnce(&mut W) -> R) -> R {
        let mut guard = self.shared.world.lock();
        f(&mut guard)
    }

    /// Sets this actor's visual state (colour), mirroring the simulator's
    /// `set_color` debugging aid so block programs behave identically on
    /// both runtimes.  The final states are reported by
    /// [`crate::ActorRunReport::visuals`].
    pub fn set_visual(&mut self, visual: VisualState) {
        self.shared.visuals.lock()[self.me.index()] = visual;
    }

    /// Requests the whole system to stop; actor threads exit after
    /// finishing their current callback.
    pub fn request_stop(&mut self) {
        self.shared.request_stop();
    }

    /// Whether a stop has been requested.
    pub fn stop_requested(&self) -> bool {
        self.shared.stop_requested()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actor_id_formatting() {
        assert_eq!(ActorId(4).to_string(), "a4");
        assert_eq!(format!("{:?}", ActorId(4)), "a4");
        assert_eq!(ActorId(9).index(), 9);
    }
}
