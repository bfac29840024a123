//! The shared surface world.
//!
//! The world is the "physics" every runtime shares: the occupancy grid,
//! the motion-rule engine, the metric counters and the move log.  Block
//! codes never inspect it globally — they only call the narrow,
//! locally-scoped queries a physical block could answer with its own
//! sensors (its position, its lateral neighbours, its own admissible
//! motions) — plus the one world mutation a block can cause: executing a
//! motion it participates in.
//!
//! ## The Eq. 9 verdict memo
//!
//! Algorithm 1 floods every block in every election and each block
//! evaluates `d_BO` (Eqs. 8–10), yet an election's hop changes at most a
//! couple of cells.  Under the rule-based model the world therefore
//! memoises the Eq. 9 feasibility verdict per cell and, after each hop,
//! clears only the entries the hop can have flipped.  The invariant that
//! makes this sound: **a certified single relocation leaves piece
//! structure unchanged outside the 8-rings of the changed cells.**  A hop
//! is *certified* when its net effect vacates at most one cell and fills
//! at most one, the vacated cell passes
//! [`sb_grid::articulation::ring_certificate`] on the pre-move board and
//! the filled cell passes it on the post-move board: every path through
//! either cell reroutes inside its ring, so removing or adding it merges
//! and splits nothing.  A verdict is a function of the rule windows
//! around its cell, of where each probed batch's net vacated and filled
//! cells attach, and of the piece structure beyond them — so a certified
//! hop leaves every verdict farther than `R` (Chebyshev) from both changed
//! cells intact, and clears the `(2R+1)²` blocks around them.  Any other
//! hop clears the whole memo, as does a grid epoch that advanced without
//! passing through [`SurfaceWorld::hop_towards_output`].
//!
//! `R` is derived from the catalogue when the world is built: over every
//! compiled rule and every subject move, the largest of the window's
//! reach from the subject, the distance to a net destination plus one,
//! and the distance to a net source plus one.  The `+ 1` covers the
//! attachment of a net cell (its lateral neighbours and ring).  For the
//! standard 3×3 catalogue `R = 3`: in a carrying chain led by a helper,
//! the net destination lies two cells from the subject and the verdict
//! reads that cell's lateral neighbours three cells away.
//!
//! A hit keeps the connectivity oracle on the course the skipped scan
//! would have driven it along, so every oracle counter stays exact.  Each
//! probe of the scan reports what decided it ([`ProbeBasis`]).  A
//! certificate only synchronised the oracle to the epoch, which the hit
//! repeats.  A forest verdict also synchronised the DFS forest, which the
//! hit repeats too ([`ConnectivityOracle::sync_forest`]).  It skips the
//! probe's hazard checks: their cells lie within `R - 1` of the entry,
//! so a hazard logged after the fill would have cleared the entry, and
//! one logged before was checked (or flushed by a rebuild) at the fill.
//! Verdicts that rest on state a later epoch does not reproduce — the
//! pendant mover, separating-pair reasoning, the BFS fallback — are not
//! memoised.  Debug builds recompute every hit through the planner's own
//! oracle and assert the verdict.

use crate::messages::Distance;
use crate::metrics::Metrics;
use sb_grid::articulation::ring_certificate;
use sb_grid::graph::{OrientedGraph, UNREACHABLE};
use sb_grid::{BlockId, ConnectivityOracle, OccupancyGrid, Pos, ProbeBasis, SurfaceConfig};
use sb_motion::{MotionPlanner, PlannedMotion, RuleCatalog, RuleId};
use std::cell::{Ref, RefCell};
use std::fmt;

/// Which motion feasibility model the world enforces.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MotionModel {
    /// The Smart Blocks model of this paper: a block only moves through a
    /// validated motion rule (support blocks, possible carrying), and no
    /// move may disconnect the ensemble (Remark 1).
    #[default]
    RuleBased,
    /// The model of the earlier work \[14\] (Tembo & El-Baz 2013): blocks
    /// move freely on the surface without support from other blocks, and
    /// the elected block travels directly towards the output instead of
    /// performing a single hop.  Communication does not require lateral
    /// contact either (in \[12\]–\[14\] the blocks sit on a smart surface
    /// that provides the communication substrate), so the election reaches
    /// every block regardless of the current geometry.  Used as the
    /// comparison baseline.
    FreeMotion,
}

/// Outcome recorded by the Root when Algorithm 1 stops.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// A block reached the output (and, depending on the termination
    /// policy, the path is complete).
    Completed,
    /// No candidate block could move towards the output anymore while the
    /// goal was not reached.
    Stalled,
}

/// The capability that produced a recorded motion.
///
/// The hot path stores the interned [`RuleId`] (two bytes, `Copy`)
/// instead of cloning the rule's display name per executed motion; the
/// name is resolved through the catalogue only when rendering
/// ([`SurfaceWorld::rule_name_of`],
/// [`crate::driver::ReconfigurationReport::rule_name`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MoveRule {
    /// An interned rule of the world's catalogue.
    Catalog(RuleId),
    /// The free-motion pseudo-rule of the \[14\] baseline (rendered as
    /// `"free"`).
    Free,
}

/// One executed motion (possibly moving several blocks simultaneously).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MoveRecord {
    /// Iteration (election) during which the motion was executed.
    pub iteration: u32,
    /// The capability that produced the motion.
    pub rule: MoveRule,
    /// The blocks that moved, with their source and destination cells.
    pub moves: Vec<(BlockId, Pos, Pos)>,
}

/// Result of asking the world to perform the elected block's hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HopResult {
    /// Whether a motion was executed at all.
    pub moved: bool,
    /// Whether the elected block now occupies the output cell.
    pub reached_output: bool,
}

/// The shared world.
pub struct SurfaceWorld {
    config: SurfaceConfig,
    planner: MotionPlanner,
    motion_model: MotionModel,
    metrics: Metrics,
    move_log: Vec<MoveRecord>,
    /// Module index per block id (dense: slot `id.as_u32()`): block ids
    /// are small and dense, so a flat vector beats a hash map on the
    /// per-message lookup path and iterates deterministically.
    module_of: Vec<Option<usize>>,
    block_of: Vec<BlockId>,
    outcome: Option<Outcome>,
    frames: Vec<String>,
    record_frames: bool,
    /// The occupancy-derived caches, all keyed by the grid's epoch
    /// counter (see [`WorldCache`]).
    cache: RefCell<WorldCache>,
    /// Chebyshev radius around a changed cell within which a certified
    /// hop can flip an Eq. 9 verdict, derived from the catalogue
    /// ([`verdict_radius`]).
    verdict_radius: i32,
}

/// Memoised views of the current occupancy, unified under one epoch
/// discipline: each entry records the [`OccupancyGrid::epoch`] it was
/// computed at and is rebuilt lazily once the grid's epoch moves past it
/// (a block moved in [`SurfaceWorld::hop_towards_output`]).  This
/// replaces the historical ad-hoc `RefCell<Option<…>>` whose consumers
/// had to remember to null it out after every mutation.
#[derive(Debug, Default)]
struct WorldCache {
    /// Cut-vertex connectivity oracle serving every Remark 1 probe of the
    /// election (Eq. 9 feasibility and hop enumeration); it tracks grid
    /// epochs internally.
    oracle: ConnectivityOracle,
    /// Grid epoch `path_field` was computed at.
    path_epoch: Option<u64>,
    /// Flat BFS distance field over *occupied* cells of `G`
    /// ([`OrientedGraph::occupied_distance_field`]: hops from `I` per
    /// cell index, `u32::MAX` when unreachable).
    /// [`SurfaceWorld::path_complete`] — asked by every `SelectAck`
    /// reaching the Root — reads the output cell's entry instead of
    /// re-running a BFS per ask.
    path_field: Option<Vec<u32>>,
    /// Grid epoch the `verdicts` describe.  A certified hop carries the
    /// memo to its new epoch; any other epoch change empties it.
    verdict_epoch: Option<u64>,
    /// The Eq. 9 verdict memo, one entry per cell index (module docs).
    verdicts: Vec<Eq9Verdict>,
}

/// One memoised Eq. 9 verdict, with what a hit must do so the
/// connectivity oracle evolves as if the scan that computed it had run
/// again (module docs).
#[derive(Clone, Copy, Debug, Default)]
struct Eq9Verdict {
    /// Whether the entry holds a verdict.
    valid: bool,
    /// Whether the block on the cell can hop towards the output.
    can_hop: bool,
    /// Whether the scan synchronised the oracle to its epoch.
    synced: bool,
    /// Whether the scan synchronised the oracle's DFS forest.
    forest: bool,
}

impl SurfaceWorld {
    /// Creates a world around a problem instance with the given rule
    /// catalogue and motion model.
    pub fn new(config: SurfaceConfig, catalog: RuleCatalog, motion_model: MotionModel) -> Self {
        let planner = match motion_model {
            MotionModel::RuleBased => MotionPlanner::new(catalog),
            MotionModel::FreeMotion => MotionPlanner::new(catalog).without_connectivity_check(),
        };
        let verdict_radius = verdict_radius(planner.catalog());
        SurfaceWorld {
            config,
            planner,
            motion_model,
            metrics: Metrics::default(),
            move_log: Vec::new(),
            module_of: Vec::new(),
            block_of: Vec::new(),
            outcome: None,
            frames: Vec::new(),
            record_frames: false,
            cache: RefCell::new(WorldCache::default()),
            verdict_radius,
        }
    }

    /// Creates a world with the standard catalogue and rule-based motion.
    pub fn standard(config: SurfaceConfig) -> Self {
        SurfaceWorld::new(config, RuleCatalog::standard(), MotionModel::RuleBased)
    }

    /// Enables recording of an ASCII frame after every executed motion
    /// (used by the examples to display the reconfiguration steps like
    /// Figs. 10–11).
    pub fn record_frames(&mut self, enable: bool) {
        self.record_frames = enable;
    }

    // ----- identity / mapping ------------------------------------------------

    /// Declares the module ↔ block mapping used by the runtimes: module
    /// index `i` runs the block code of `blocks[i]`.
    pub fn set_module_mapping(&mut self, blocks: Vec<BlockId>) {
        let slots = blocks
            .iter()
            .map(|b| b.as_u32() as usize + 1)
            .max()
            .unwrap_or(0);
        self.module_of = vec![None; slots];
        for (i, &b) in blocks.iter().enumerate() {
            self.module_of[b.as_u32() as usize] = Some(i);
        }
        self.block_of = blocks;
    }

    /// Module index hosting a block.
    pub fn module_index_of(&self, block: BlockId) -> Option<usize> {
        self.module_of
            .get(block.as_u32() as usize)
            .copied()
            .flatten()
    }

    /// Block hosted by a module index.
    pub fn block_of_module(&self, index: usize) -> Option<BlockId> {
        self.block_of.get(index).copied()
    }

    /// Blocks in module order.
    pub fn module_order(&self) -> &[BlockId] {
        &self.block_of
    }

    // ----- read-only geometry -------------------------------------------------

    /// The problem instance.
    pub fn config(&self) -> &SurfaceConfig {
        &self.config
    }

    /// The occupancy grid.
    pub fn grid(&self) -> &OccupancyGrid {
        self.config.grid()
    }

    /// The input cell `I`.
    pub fn input(&self) -> Pos {
        self.config.input()
    }

    /// The output cell `O`.
    pub fn output(&self) -> Pos {
        self.config.output()
    }

    /// The Root: the block currently occupying the input cell.
    pub fn root_block(&self) -> Option<BlockId> {
        self.config.root()
    }

    /// The current position of a block.
    pub fn position_of(&self, block: BlockId) -> Option<Pos> {
        self.grid().position_of(block)
    }

    /// The blocks `block` can exchange messages with.
    ///
    /// Under the rule-based model these are the laterally adjacent blocks
    /// (communication ports sit on the four sides of a block).  Under the
    /// free-motion baseline the communication substrate is the smart
    /// surface itself, so every other block is reachable.
    pub fn neighbors_of(&self, block: BlockId) -> Vec<BlockId> {
        let mut out = Vec::new();
        self.neighbors_into(block, &mut out);
        out
    }

    /// Fills `out` with the blocks `block` can exchange messages with
    /// (see [`SurfaceWorld::neighbors_of`]), reusing the buffer's
    /// capacity — the allocation-free variant the election hot path uses.
    pub fn neighbors_into(&self, block: BlockId, out: &mut Vec<BlockId>) {
        out.clear();
        match self.motion_model {
            MotionModel::RuleBased => {
                if let Some(pos) = self.position_of(block) {
                    // Same Direction::ALL probe order as
                    // `OccupancyGrid::occupied_neighbors`, without
                    // materialising the `(Direction, BlockId)` pairs.
                    for &d in sb_grid::Direction::ALL.iter() {
                        if let Some(id) = self.grid().block_at(pos.step(d)) {
                            out.push(id);
                        }
                    }
                }
            }
            MotionModel::FreeMotion => {
                out.extend(
                    self.grid()
                        .blocks()
                        .map(|(id, _)| id)
                        .filter(|&id| id != block),
                );
                out.sort();
            }
        }
    }

    /// The motion planner (exposed for analysis tools and benches).
    pub fn planner(&self) -> &MotionPlanner {
        &self.planner
    }

    /// The configured motion model.
    pub fn motion_model(&self) -> MotionModel {
        self.motion_model
    }

    // ----- election-side queries ---------------------------------------------

    /// Computes the distance `d_BO` of a block to the output, implementing
    /// Eqs. (8)–(10) of the paper:
    ///
    /// * `+∞` when the block is on the output's row or column *inside the
    ///   oriented graph `G`* (Eq. 8) — it has "already joined a position on
    ///   this row or column" of the path being built and "must continue to
    ///   be occupied by a block till the end of the distributed iterative
    ///   process".  The literal text of Eq. 8 freezes any block aligned
    ///   with `O`; restricting it to the rectangle bounded by `I` and `O`
    ///   matches the stated intent (blocks that joined the straight part
    ///   of the path) without also freezing helper blocks that merely pass
    ///   by `O`'s row outside the path, which would make some instances
    ///   unsolvable.
    /// * `+∞` when the block occupies the input cell `I` (the Root must
    ///   keep `I` occupied: positions of the path stay occupied, step b of
    ///   the proof of Lemma 1);
    /// * `+∞` when no admissible move towards `O` exists for the block
    ///   (Eq. 9);
    /// * the Manhattan distance `|O_i − B_i| + |O_j − B_j|` otherwise
    ///   (Eq. 10).
    pub fn distance_to_output(&mut self, block: BlockId) -> Distance {
        self.metrics.distance_computations += 1;
        let pos = match self.position_of(block) {
            Some(p) => p,
            None => return Distance::INFINITE,
        };
        let output = self.output();
        let graph = self.config.graph();
        if (pos.x == output.x || pos.y == output.y) && graph.contains(pos) {
            return Distance::INFINITE;
        }
        if pos == self.input() {
            return Distance::INFINITE;
        }
        if !self.can_hop_towards_output(pos) {
            return Distance::INFINITE;
        }
        Distance::finite(pos.manhattan(output))
    }

    /// Whether the cell is *locked*: it belongs to the straight part of the
    /// path being built (aligned with the output inside the oriented graph
    /// `G`) or it is the input cell.  Step b of the proof of Lemma 1
    /// requires such positions to "remain occupied all along the
    /// distributed application"; the implementation enforces the stronger
    /// (and livelock-free) policy that the blocks occupying them do not
    /// move at all — not even as helpers of a carrying motion, which would
    /// otherwise let two blocks swap through a path cell forever without
    /// making progress.
    pub fn is_locked(&self, pos: Pos) -> bool {
        locked_cell(pos, self.input(), self.output(), &self.config.graph())
    }

    /// The memoised flat BFS distance field over occupied cells of `G`
    /// (hops from `I` through blocks along oriented links, keyed by
    /// [`sb_grid::Bounds::index_of`], `u32::MAX` when unreachable).
    /// Recomputed lazily, only after the grid's epoch has moved (a block
    /// moved).
    pub fn occupied_distance_field(&self) -> Ref<'_, Vec<u32>> {
        let epoch = self.grid().epoch();
        // Only take the mutable borrow when the cache is actually stale:
        // a caller may hold a previously returned `Ref` while asking
        // again (e.g. via `path_complete`), and an unconditional
        // `borrow_mut` would panic on that re-entrant read.  (A held
        // `Ref` borrows the world, so the grid cannot have moved since —
        // the stale path is unreachable in that situation.)
        let stale = self.cache.borrow().path_epoch != Some(epoch);
        if stale {
            let field = self
                .config
                .graph()
                .occupied_distance_field(self.config.grid());
            let mut cache = self.cache.borrow_mut();
            cache.path_field = Some(field);
            cache.path_epoch = Some(epoch);
        }
        Ref::map(self.cache.borrow(), |cache| {
            cache.path_field.as_ref().expect("filled above")
        })
    }

    /// The admissible motions for the block at `pos` towards the output,
    /// already filtered by the locking policy and ordered by the driver's
    /// preference: motions whose subject enters a path cell first, then
    /// fewest blocks moved, then destinations closest to the output's
    /// column/row.
    fn admissible_motions_towards_output(&mut self, pos: Pos) -> Vec<PlannedMotion> {
        self.metrics.rule_checks += 1;
        let output = self.output();
        let oracle = &mut self.cache.borrow_mut().oracle;
        let mut motions: Vec<PlannedMotion> = self
            .planner
            .motions_towards_with(self.config.grid(), pos, output, oracle)
            .into_iter()
            .filter(|m| m.moves.iter().all(|&(from, _)| !self.is_locked(from)))
            .collect();
        motions.sort_by_key(|m| {
            let enters_path = self.is_locked(m.subject_to);
            (
                !enters_path,
                m.blocks_moved(),
                m.subject_to.x.abs_diff(output.x) + m.subject_to.y.abs_diff(output.y),
                m.subject_to,
            )
        });
        motions
    }

    /// The admissible free-motion destinations for the block at `pos`
    /// towards the output: any free adjacent cell strictly closer to `O`
    /// (the \[14\] model needs neither support blocks nor connectivity).
    fn free_motion_destinations(&mut self, pos: Pos) -> Vec<Pos> {
        self.metrics.rule_checks += 1;
        let output = self.output();
        let mut dirs = pos.directions_towards(output);
        // Prefer the direction that aligns the block with the output
        // first (smallest cross-axis distance), so the path fills from its
        // input end upwards instead of blocks overshooting and walling off
        // the cells below them.
        dirs.sort_by_key(|d| {
            let next = pos.step(*d);
            (
                next.x.abs_diff(output.x).min(next.y.abs_diff(output.y)),
                next,
            )
        });
        dirs.into_iter()
            .map(|d| pos.step(d))
            .filter(|&next| self.config.grid().is_free(next))
            .collect()
    }

    /// The Eq. (9) feasibility probe behind [`SurfaceWorld::distance_to_output`].
    ///
    /// Under the rule-based model a miss routes through the planner's
    /// short-circuiting fast path — stop at the first admissible motion,
    /// no `PlannedMotion` materialised, no sorting, no heap allocation
    /// after warm-up — rather than enumerating every admissible motion
    /// only to test the list for emptiness.  The locking policy is passed
    /// down as the admission filter, so the answer is exactly
    /// `!admissible_motions_towards_output(pos).is_empty()`.  The answer
    /// is memoised per cell (module docs); a hit repeats only the oracle
    /// synchronisation the scan performed.
    fn can_hop_towards_output(&mut self, pos: Pos) -> bool {
        if self.motion_model == MotionModel::FreeMotion {
            return !self.free_motion_destinations(pos).is_empty();
        }
        self.metrics.rule_checks += 1;
        let grid = self.config.grid();
        let input = self.config.input();
        let output = self.config.output();
        let graph = self.config.graph();
        let admit = |moves: &[(Pos, Pos)]| {
            moves
                .iter()
                .all(|&(from, _)| !locked_cell(from, input, output, &graph))
        };
        let cache = self.cache.get_mut();
        if cache.verdict_epoch != Some(grid.epoch()) {
            cache.verdicts.clear();
            cache
                .verdicts
                .resize(grid.bounds().area(), Eq9Verdict::default());
            cache.verdict_epoch = Some(grid.epoch());
        }
        let index = grid.bounds().index_of(pos);
        let memo = cache.verdicts[index];
        if memo.valid {
            if memo.forest {
                cache.oracle.sync_forest(grid);
            } else if memo.synced {
                cache.oracle.component_count(grid);
            }
            debug_assert_eq!(
                memo.can_hop,
                self.planner.any_motion_towards(grid, pos, output, admit),
                "memoised Eq. 9 verdict at {pos} is stale"
            );
            return memo.can_hop;
        }
        let mut fresh = Eq9Verdict {
            valid: true,
            ..Eq9Verdict::default()
        };
        fresh.can_hop = self
            .planner
            .any_motion_towards_with(grid, pos, output, admit, |moves| {
                let (connected, basis) = cache.oracle.probe(grid, moves);
                match basis {
                    ProbeBasis::Trivial => {}
                    ProbeBasis::Certificate => fresh.synced = true,
                    ProbeBasis::Forest => fresh.forest = true,
                    // Verdicts tied to oracle state a later epoch does
                    // not reproduce: recompute every time.
                    ProbeBasis::PendantMover
                    | ProbeBasis::SeparatingPair
                    | ProbeBasis::Fallback => {
                        fresh.valid = false;
                    }
                }
                connected
            });
        cache.verdicts[index] = fresh;
        fresh.can_hop
    }

    /// Executes a planned rule motion and carries the Eq. 9 memo across
    /// it: a certified hop clears the entries within `verdict_radius` of
    /// its changed cells, any other hop clears them all (module docs).
    /// Allocation-free.
    fn apply_rule_motion(&mut self, moves: &[(Pos, Pos)]) {
        // Net effect: cells vacated and not refilled, cells filled and
        // not vacated (a carrying chain's hand-over cells cancel).
        let (mut vacated, mut filled) = (None, None);
        let mut certified = true;
        for &(from, _) in moves {
            if !moves.iter().any(|&(_, to)| to == from) {
                certified &= vacated.replace(from).is_none();
            }
        }
        for &(_, to) in moves {
            if !moves.iter().any(|&(from, _)| from == to) {
                certified &= filled.replace(to).is_none();
            }
        }
        let pre_epoch = self.grid().epoch();
        let grid = self.config.grid();
        certified &= vacated.is_none_or(|f| ring_certificate(&|p| grid.is_occupied(p), f));
        self.config
            .grid_mut()
            .apply_simultaneous_moves(moves)
            .expect("planned motion must be executable");
        let grid = self.config.grid();
        certified &= filled.is_none_or(|t| ring_certificate(&|p| grid.is_occupied(p), t));

        let cache = self.cache.get_mut();
        if cache.verdict_epoch != Some(pre_epoch) {
            // Already stale: the next probe empties it.
            return;
        }
        cache.verdict_epoch = Some(grid.epoch());
        if !certified {
            for entry in cache.verdicts.iter_mut() {
                entry.valid = false;
            }
            return;
        }
        let bounds = grid.bounds();
        let r = self.verdict_radius;
        for centre in vacated.into_iter().chain(filled) {
            for y in centre.y - r..=centre.y + r {
                for x in centre.x - r..=centre.x + r {
                    let p = Pos::new(x, y);
                    if bounds.contains(p) {
                        cache.verdicts[bounds.index_of(p)].valid = false;
                    }
                }
            }
        }
    }

    // ----- motion execution ---------------------------------------------------

    /// Executes the elected block's motion towards the output and records
    /// metrics and the move log.
    ///
    /// * Under the rule-based model this is a single one-cell hop (possibly
    ///   a carrying motion displacing a helper block as well), chosen
    ///   deterministically among the admissible motions.
    /// * Under the free-motion baseline the elected block travels directly
    ///   towards the output, cell by cell, until it reaches a cell of the
    ///   path (aligned with `O` inside the oriented graph) or can no longer
    ///   progress — the behaviour of the elected block in \[14\].  Every
    ///   traversed cell counts as one elementary move.
    pub fn hop_towards_output(&mut self, block: BlockId, iteration: u32) -> HopResult {
        let pos = match self.position_of(block) {
            Some(p) => p,
            None => {
                return HopResult {
                    moved: false,
                    reached_output: false,
                }
            }
        };
        let executed: Option<(MoveRule, Vec<(Pos, Pos)>)> = match self.motion_model {
            MotionModel::RuleBased => self
                .admissible_motions_towards_output(pos)
                .first()
                .map(|m: &PlannedMotion| (MoveRule::Catalog(m.rule_id), m.moves.clone())),
            MotionModel::FreeMotion => {
                // Walk towards the output until aligned (locked cell) or
                // blocked; each step is applied later as its own
                // elementary move, in order.
                let mut steps = Vec::new();
                let mut cur = pos;
                while let Some(next) = self.free_motion_destinations(cur).first().copied() {
                    steps.push((cur, next));
                    cur = next;
                    if self.is_locked(cur) || cur == self.output() {
                        break;
                    }
                }
                if steps.is_empty() {
                    None
                } else {
                    Some((MoveRule::Free, steps))
                }
            }
        };

        let (rule, moves) = match executed {
            Some(x) => x,
            None => {
                return HopResult {
                    moved: false,
                    reached_output: false,
                }
            }
        };

        let records: Vec<(BlockId, Pos, Pos)> = moves
            .iter()
            .map(|&(from, to)| {
                let id = self.config.grid().block_at(from).unwrap_or(block);
                (id, from, to)
            })
            .collect();
        match self.motion_model {
            MotionModel::RuleBased => {
                self.apply_rule_motion(&moves);
            }
            MotionModel::FreeMotion => {
                for &(from, to) in &moves {
                    self.config
                        .grid_mut()
                        .move_block(from, to)
                        .expect("free-motion step must be executable");
                }
            }
        }
        // Every other derived cache keys on the grid's epoch, which the
        // mutations above advanced.
        self.metrics.elementary_moves += moves.len() as u64;
        self.metrics.elected_hops += 1;
        self.move_log.push(MoveRecord {
            iteration,
            rule,
            moves: records,
        });
        if self.record_frames {
            self.frames.push(self.ascii());
        }
        let new_pos = self.position_of(block).expect("block still on surface");
        HopResult {
            moved: true,
            reached_output: new_pos == self.output(),
        }
    }

    // ----- global observations (driver / Root side) ---------------------------

    /// Whether the output cell is occupied.
    pub fn output_occupied(&self) -> bool {
        self.grid().is_occupied(self.output())
    }

    /// Whether a complete shortest path of blocks connects `I` to `O`:
    /// the output cell's entry of the memoised occupied distance field is
    /// finite.  Recomputed only after a block has actually moved.
    pub fn path_complete(&self) -> bool {
        let output_idx = self.grid().bounds().index_of(self.output());
        self.occupied_distance_field()[output_idx] != UNREACHABLE
    }

    /// The occupied shortest path, if complete.
    pub fn completed_path(&self) -> Option<Vec<Pos>> {
        self.config
            .graph()
            .occupied_shortest_path(self.config.grid())
    }

    /// Records the final outcome (set by the Root's block code).
    pub fn set_outcome(&mut self, outcome: Outcome) {
        self.outcome = Some(outcome);
    }

    /// The recorded outcome, if the algorithm finished.
    pub fn outcome(&self) -> Option<Outcome> {
        self.outcome
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// A copy of the accumulated metrics with the connectivity oracle's
    /// lifetime counters folded in — the rebuild and incremental-update
    /// counts and the number of Remark 1 probes that had to leave the
    /// O(1) block-cut-tree path for the scratch BFS.  The oracle lives in
    /// the world's occupancy cache rather than in `Metrics` (its counters
    /// advance inside immutable probes), so reporting snapshots them on
    /// demand.
    pub fn metrics_with_connectivity(&self) -> Metrics {
        let cache = self.cache.borrow();
        let mut metrics = self.metrics;
        metrics.connectivity_rebuilds = cache.oracle.rebuilds();
        metrics.connectivity_fallback_probes = cache.oracle.fallback_probes();
        metrics.connectivity_incremental_updates = cache.oracle.incremental_updates();
        metrics
    }

    /// Mutable access to the metrics (used by the runtimes to count
    /// messages).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// The executed motions in order.
    pub fn move_log(&self) -> &[MoveRecord] {
        &self.move_log
    }

    /// The display name of a recorded motion's rule, resolved through the
    /// world's catalogue (records store the interned [`RuleId`] only).
    pub fn rule_name_of(&self, record: &MoveRecord) -> &str {
        match record.rule {
            MoveRule::Catalog(id) => self.planner.catalog().name_of(id),
            MoveRule::Free => "free",
        }
    }

    /// The recorded ASCII frames (empty unless
    /// [`SurfaceWorld::record_frames`] was enabled).
    pub fn frames(&self) -> &[String] {
        &self.frames
    }

    /// ASCII rendering of the current occupancy.
    pub fn ascii(&self) -> String {
        self.config.to_ascii()
    }

    /// ASCII rendering with block identifiers.
    pub fn ascii_with_ids(&self) -> String {
        sb_grid::render::render_with_ids(self.grid(), self.input(), self.output())
    }
}

/// The Eq. 9 memo radius `R` of a catalogue (module docs): over every
/// compiled rule and subject move, the largest Chebyshev distance from
/// the subject to a window cell, to a net destination plus one, and to a
/// net source plus one.
fn verdict_radius(catalog: &RuleCatalog) -> i32 {
    let mut radius = 0;
    for rule in catalog.compiled() {
        let half = i32::try_from(rule.size / 2).expect("window sizes are tiny");
        for subject in &rule.moves {
            let (sx, sy) = subject.from;
            let dist = |(x, y): (i32, i32)| (x - sx).abs().max((y - sy).abs());
            radius = radius.max(half + sx.abs().max(sy.abs()));
            for m in &rule.moves {
                if !rule.moves.iter().any(|o| o.to == m.from) {
                    radius = radius.max(dist(m.from) + 1);
                }
                if !rule.moves.iter().any(|o| o.from == m.to) {
                    radius = radius.max(dist(m.to) + 1);
                }
            }
        }
    }
    radius
}

/// The locking policy of [`SurfaceWorld::is_locked`] as a free function,
/// so the planner's admission closure can use it without borrowing the
/// whole world.
fn locked_cell(pos: Pos, input: Pos, output: Pos, graph: &OrientedGraph) -> bool {
    if pos == input {
        return true;
    }
    (pos.x == output.x || pos.y == output.y) && graph.contains(pos)
}

impl fmt::Debug for SurfaceWorld {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SurfaceWorld({} blocks, I={}, O={}, {:?})",
            self.grid().block_count(),
            self.input(),
            self.output(),
            self.motion_model
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::ReconfigurationDriver;

    fn small_world() -> SurfaceWorld {
        // Output at the top of column 1, Root at I=(1,0).
        let cfg = SurfaceConfig::from_ascii(
            ". O . .\n\
             . . . .\n\
             . . . .\n\
             . # # .\n\
             . I # .",
        )
        .unwrap();
        SurfaceWorld::standard(cfg)
    }

    #[test]
    fn mapping_round_trips() {
        let mut w = small_world();
        let blocks = w.grid().block_ids_sorted();
        w.set_module_mapping(blocks.clone());
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(w.module_index_of(*b), Some(i));
            assert_eq!(w.block_of_module(i), Some(*b));
        }
        assert_eq!(w.block_of_module(99), None);
        assert_eq!(w.module_index_of(BlockId(99)), None);
    }

    #[test]
    fn neighbors_reflect_lateral_adjacency() {
        let w = small_world();
        let root = w.root_block().unwrap();
        let neighbors = w.neighbors_of(root);
        // The Root at (1,0) touches the blocks at (2,0) and (1,1).
        assert_eq!(neighbors.len(), 2);
    }

    #[test]
    fn distance_excludes_aligned_blocks_and_the_root() {
        let mut w = small_world();
        let output = w.output();
        // The Root is in the output's column AND at I: infinite.
        let root = w.root_block().unwrap();
        assert!(w.distance_to_output(root).is_infinite());
        // The block at (1,1) is in the output's column: infinite (Eq. 8).
        let aligned = w.grid().block_at(Pos::new(1, 1)).unwrap();
        assert!(w.distance_to_output(aligned).is_infinite());
        // The block at (2,1) is not aligned and can move: finite Manhattan
        // distance (Eq. 10).
        let free = w.grid().block_at(Pos::new(2, 1)).unwrap();
        let d = w.distance_to_output(free);
        assert_eq!(d, Distance::finite(Pos::new(2, 1).manhattan(output)));
        // Metrics counted the three computations.
        assert_eq!(w.metrics().distance_computations, 3);
    }

    #[test]
    fn hop_moves_towards_output_and_logs() {
        let mut w = small_world();
        let mover = w.grid().block_at(Pos::new(2, 1)).unwrap();
        let before = w.position_of(mover).unwrap();
        let result = w.hop_towards_output(mover, 1);
        assert!(result.moved);
        assert!(!result.reached_output);
        let after = w.position_of(mover).unwrap();
        assert_eq!(
            before.manhattan(w.output()) - 1,
            after.manhattan(w.output())
        );
        assert_eq!(w.move_log().len(), 1);
        // The record interns the rule id; the display name resolves
        // through the catalogue and names a real rule.
        let record = &w.move_log()[0];
        assert!(matches!(record.rule, MoveRule::Catalog(_)));
        let name = w.rule_name_of(record).to_string();
        assert!(w.planner().catalog().find(&name).is_some());
        assert!(w.metrics().elementary_moves >= 1);
        assert_eq!(w.metrics().elected_hops, 1);
        assert!(w.grid().is_connected());
    }

    #[test]
    fn free_motion_model_ignores_support() {
        let cfg = SurfaceConfig::from_ascii(
            ". O . .\n\
             . . . .\n\
             . . . .\n\
             . # # .\n\
             . I # .",
        )
        .unwrap();
        let mut w = SurfaceWorld::new(cfg, RuleCatalog::standard(), MotionModel::FreeMotion);
        let mover = w.grid().block_at(Pos::new(2, 1)).unwrap();
        // Under free motion the elected block travels directly towards the
        // output (no support blocks needed) until it joins the output's
        // column.
        let r = w.hop_towards_output(mover, 1);
        assert!(r.moved);
        let end = w.position_of(mover).unwrap();
        assert_eq!(end.x, w.output().x, "the journey ends on the path column");
        assert_eq!(w.move_log()[0].rule, MoveRule::Free);
        assert_eq!(w.rule_name_of(&w.move_log()[0]), "free");
        assert_eq!(
            w.move_log()[0].moves.len() as u32,
            Pos::new(2, 1).manhattan(end),
            "one elementary move per traversed cell"
        );
        // Under the free-motion model every block can be messaged.
        assert_eq!(w.neighbors_of(mover).len(), w.grid().block_count() - 1);
    }

    #[test]
    fn path_completion_detection() {
        let cfg = SurfaceConfig::from_ascii(
            "o . .\n\
             # . .\n\
             # # .\n\
             I # .",
        )
        .unwrap();
        let w = SurfaceWorld::standard(cfg);
        assert!(w.output_occupied());
        assert!(w.path_complete());
        let path = w.completed_path().unwrap();
        assert_eq!(path.len(), 4);
    }

    #[test]
    fn frames_recorded_when_enabled() {
        let mut w = small_world();
        w.record_frames(true);
        let mover = w.grid().block_at(Pos::new(2, 1)).unwrap();
        w.hop_towards_output(mover, 1);
        assert_eq!(w.frames().len(), 1);
        assert!(w.frames()[0].contains('#'));
        assert!(w.ascii_with_ids().contains('|'));
    }

    #[test]
    fn feasibility_fast_path_agrees_with_motion_enumeration() {
        let mut w = small_world();
        for pos in w.grid().bounds().iter() {
            let fast = w.can_hop_towards_output(pos);
            let full = !w.admissible_motions_towards_output(pos).is_empty();
            assert_eq!(fast, full, "at {pos}");
        }
    }

    #[test]
    fn path_cache_invalidates_on_moves() {
        // The path column (x = 0) is complete except for the output cell;
        // the block at (1,3) can slide west onto it.
        let cfg = SurfaceConfig::from_ascii(
            "O # .\n\
             # # .\n\
             # . .\n\
             I . .",
        )
        .unwrap();
        let mut w = SurfaceWorld::standard(cfg);
        assert!(!w.path_complete());
        assert!(!w.path_complete(), "cached answer stays correct");
        let finisher = w.grid().block_at(Pos::new(1, 3)).unwrap();
        let result = w.hop_towards_output(finisher, 1);
        assert!(result.moved);
        assert!(result.reached_output);
        // A stale cache would still answer `false` here: the hop must
        // invalidate it.
        assert!(w.path_complete());
        // The memoised field agrees with a fresh graph computation.
        let graph = w.config().graph();
        let fresh = graph.occupied_distance_field(w.grid());
        assert_eq!(*w.occupied_distance_field(), fresh);
    }

    #[test]
    fn memo_radius_is_derived_from_the_catalogue() {
        // A helper-led carrying chain puts the net destination two cells
        // from its subject: R = 2 + 1.
        assert_eq!(verdict_radius(&RuleCatalog::standard()), 3);
        // Sliding alone: destination one cell away.
        assert_eq!(verdict_radius(&RuleCatalog::sliding_only()), 2);
    }

    /// Eq. 9 verdicts of every block, from a fresh world on `config`.
    fn fresh_verdicts(config: &SurfaceConfig) -> Vec<(Pos, bool)> {
        let mut fresh = SurfaceWorld::standard(config.clone());
        let blocks: Vec<(BlockId, Pos)> = fresh.grid().blocks().collect();
        blocks
            .into_iter()
            .map(|(b, p)| (p, !fresh.distance_to_output(b).is_infinite()))
            .collect()
    }

    #[test]
    fn loop_closing_hop_clears_the_whole_memo() {
        // The block at (2,4) is carried west onto (1,4) while (3,4)
        // follows it.  The landing joins the west column to the ribbon
        // and closes the loop through the bottom row, so (2,0) stops
        // being a cut vertex and can now climb to (2,1) — four cells from
        // both changed cells, beyond the local invalidation radius.  The
        // landing fails the ring certificate, so the whole memo must go.
        let cfg = SurfaceConfig::from_ascii(
            ". O . . .\n\
             . . . . .\n\
             # . # # .\n\
             # . # # .\n\
             # . # # .\n\
             # . . # .\n\
             # I # # #",
        )
        .unwrap();
        let far = Pos::new(2, 0);
        let before = fresh_verdicts(&cfg);
        assert!(before.contains(&(far, false)));

        let mut w = SurfaceWorld::standard(cfg);
        let blocks: Vec<(BlockId, Pos)> = w.grid().blocks().collect();
        for &(b, _) in &blocks {
            w.distance_to_output(b);
        }
        let mover = w.grid().block_at(Pos::new(2, 4)).unwrap();
        assert!(w.hop_towards_output(mover, 1).moved);
        let moves: Vec<(Pos, Pos)> = w.move_log()[0]
            .moves
            .iter()
            .map(|&(_, from, to)| (from, to))
            .collect();
        assert_eq!(
            moves,
            vec![
                (Pos::new(2, 4), Pos::new(1, 4)),
                (Pos::new(3, 4), Pos::new(2, 4))
            ]
        );

        let after = fresh_verdicts(w.config());
        assert!(after.contains(&(far, true)), "the far verdict flips");
        for (p, expected) in after {
            let b = w.grid().block_at(p).unwrap();
            let memoised = !w.distance_to_output(b).is_infinite();
            assert_eq!(memoised, expected, "memoised Eq. 9 verdict at {p}");
        }
    }

    #[test]
    fn memo_radius_covers_a_helper_led_carrying_chain() {
        // On this blob a vacate at (2,3) flips the verdict at (2,0), three
        // cells away; a memo radius below the derived R = 3 keeps that
        // entry stale, which the debug-build check of every hit catches.
        let report = ReconfigurationDriver::new(crate::workloads::random_blob_instance(11, 17))
            .with_seed(17)
            .run_des();
        assert!(report.completed || report.stalled);
        let config = SurfaceConfig::from_ascii(&report.final_ascii).unwrap();
        assert!(config.grid().is_connected());
    }

    #[test]
    fn outcome_set_and_read() {
        let mut w = small_world();
        assert_eq!(w.outcome(), None);
        w.set_outcome(Outcome::Completed);
        assert_eq!(w.outcome(), Some(Outcome::Completed));
    }
}
