//! Kernel-level crash windows: per-module dead intervals during which
//! the dispatcher silently drops deliveries.
//!
//! The portable fault *lifecycle* (going dead, snapshotting state,
//! rejoining) lives in the per-module block code, because the threaded
//! actor runtime has no kernel to enforce it.  What the block code
//! cannot express on the DES is the fate of events **already in
//! flight**: a message scheduled before the crash but delivered inside
//! the dead window would still invoke `on_message`, and a pending timer
//! would still fire.  A [`FaultPlan`] closes that gap — the dispatcher
//! consults it right before dispatch and drops
//!
//! * every `Message` event whose target is dead at its delivery time,
//!   and
//! * every `Timer` event on a dead module, **except** tags matched by
//!   the control mask (the block code's own crash/rejoin/watchdog
//!   machinery must keep running while the module is dead — most
//!   importantly the rejoin timer itself).
//!
//! Dropped events are counted in
//! [`SimStats::messages_dropped_dead`](crate::SimStats) and
//! [`SimStats::timers_dropped_dead`](crate::SimStats), making dead time
//! observable in the run statistics.  Start-up callbacks are never
//! dropped: fault windows open strictly after start-up.

use crate::time::SimTime;

/// One per-module dead interval: `[from, until)`, or `[from, ∞)` when
/// `until` is `None` (a permanent crash).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultWindow {
    /// Index of the module that is dead during the window.
    pub module: usize,
    /// When the module dies (inclusive).
    pub from: SimTime,
    /// When it revives (exclusive; events at exactly this instant are
    /// delivered again), or `None` for a permanent crash.
    pub until: Option<SimTime>,
}

impl FaultWindow {
    /// Whether the window covers instant `t`.
    pub fn covers(&self, t: SimTime) -> bool {
        t >= self.from && self.until.is_none_or(|u| t < u)
    }
}

/// A set of dead windows plus the control-tag mask of timers that must
/// survive them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
    control_tag_mask: u64,
}

impl FaultPlan {
    /// An empty plan (no module is ever dead).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds one dead window (builder style).
    pub fn with_window(mut self, module: usize, from: SimTime, until: Option<SimTime>) -> Self {
        self.windows.push(FaultWindow {
            module,
            from,
            until,
        });
        self
    }

    /// Sets the mask of timer tags exempt from dropping (builder style):
    /// a timer with `tag & mask != 0` fires even on a dead module.
    pub fn with_control_tag_mask(mut self, mask: u64) -> Self {
        self.control_tag_mask = mask;
        self
    }

    /// Whether `module` is dead at instant `t`.
    pub fn dead_at(&self, module: usize, t: SimTime) -> bool {
        self.windows
            .iter()
            .any(|w| w.module == module && w.covers(t))
    }

    /// Whether a timer tag is exempt from the dead-module drop.
    pub fn exempt(&self, tag: u64) -> bool {
        tag & self.control_tag_mask != 0
    }

    /// The registered windows.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_covers_its_half_open_interval() {
        let w = FaultWindow {
            module: 3,
            from: SimTime(100),
            until: Some(SimTime(400)),
        };
        assert!(!w.covers(SimTime(99)));
        assert!(w.covers(SimTime(100)));
        assert!(w.covers(SimTime(399)));
        assert!(!w.covers(SimTime(400)), "revival instant is alive again");
    }

    #[test]
    fn permanent_window_never_ends() {
        let w = FaultWindow {
            module: 0,
            from: SimTime(5),
            until: None,
        };
        assert!(w.covers(SimTime(u64::MAX)));
    }

    #[test]
    fn plan_resolves_per_module_and_exempts_control_tags() {
        let plan = FaultPlan::new()
            .with_window(1, SimTime(10), Some(SimTime(20)))
            .with_control_tag_mask(1 << 63);
        assert!(plan.dead_at(1, SimTime(15)));
        assert!(!plan.dead_at(0, SimTime(15)), "other modules stay alive");
        assert!(!plan.dead_at(1, SimTime(25)), "the window closed");
        assert!(plan.exempt((1 << 63) | 7));
        assert!(!plan.exempt(7));
        assert_eq!(plan.windows().len(), 1);
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::new();
        assert!(!plan.dead_at(0, SimTime::ZERO));
        assert!(!plan.exempt(u64::MAX), "no mask, nothing exempt");
    }
}
