//! Parallel branch & bound by subtree decomposition.
//!
//! The same decomposition idea the search-space mode uses (fix the first
//! `D = ⌊log₂ P⌋` variables of the branching order to the bits of the
//! worker index) applied to the *exact* solver: the 2^D cells partition
//! the B&B tree into disjoint subtrees, each proved by its own worker.
//! Workers share one incumbent, so a strong solution found in one cell
//! immediately tightens the pruning in every other — the classic
//! superlinear-speedup mechanism of parallel B&B (and, on one core, still a
//! correct and tested execution path).

use crate::bounds::{lp_bound, Surrogate};
use crate::branch_bound::{BbConfig, BbResult};
use mkp::eval::Ratios;
use mkp::greedy::greedy;
use mkp::{BitVec, Instance, Solution};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Solve exactly with `workers` parallel subtree provers.
///
/// `workers` is rounded down to a power of two (the cell count); 1 worker
/// degenerates to the sequential DFS semantics.
pub fn solve_parallel(inst: &Instance, cfg: &BbConfig, workers: usize) -> BbResult {
    assert!(workers >= 1, "need at least one worker");
    let cells = workers.next_power_of_two() / if workers.is_power_of_two() { 1 } else { 2 };
    let d = cells.trailing_zeros() as usize;

    let ratios = Ratios::new(inst);
    let seed_incumbent = greedy(inst, &ratios);
    let lp = lp_bound(inst).expect("MKP relaxation is always a valid LP");
    let root_lp = lp.objective;
    if (root_lp - seed_incumbent.value() as f64).abs() < 1e-6 {
        return BbResult {
            solution: seed_incumbent,
            proven: true,
            nodes: 0,
            root_lp,
            fixed_at_root: 0,
        };
    }

    let surrogate = Surrogate::from_duals(inst, &lp.duals, cfg.surrogate_scale);
    let order = surrogate.ratio_order(inst);
    let split = &order[..d.min(order.len())];

    let incumbent = Incumbent {
        best: Mutex::new((seed_incumbent.value(), None)),
        hint: AtomicI64::new(seed_incumbent.value()),
    };
    let total_nodes = AtomicU64::new(0);
    let truncated = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for cell in 0..cells {
            let surrogate = &surrogate;
            let order = &order;
            let incumbent = &incumbent;
            let total_nodes = &total_nodes;
            let truncated = &truncated;
            scope.spawn(move || {
                // Build the cell's root: forced prefix assignment.
                let mut partial = Solution::empty(inst);
                let mut s_remaining = surrogate.capacity;
                let mut feasible = true;
                for (bit, &j) in split.iter().enumerate() {
                    if (cell >> bit) & 1 == 1 {
                        if !partial.fits(inst, j) {
                            feasible = false; // empty cell
                            break;
                        }
                        partial.add(inst, j);
                        s_remaining -= surrogate.weights[j];
                    }
                }
                if !feasible {
                    return;
                }
                let mut worker = CellProver {
                    inst,
                    surrogate,
                    order,
                    split_len: split.len(),
                    node_limit: cfg.node_limit / cells as u64,
                    nodes: 0,
                    truncated: false,
                    incumbent,
                };
                worker.dive(&mut partial, split.len(), s_remaining);
                total_nodes.fetch_add(worker.nodes, Ordering::Relaxed);
                if worker.truncated {
                    truncated.store(true, Ordering::Relaxed);
                }
            });
        }
    });

    let (value, bits) = incumbent
        .best
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let solution = match bits {
        Some(b) => Solution::from_bits(inst, b),
        None => seed_incumbent,
    };
    // Hard checks: a release build must never hand back an infeasible or
    // mismatched incumbent marked proven.
    assert!(
        solution.is_feasible(inst),
        "parallel B&B incumbent infeasible"
    );
    assert_eq!(
        solution.value(),
        value,
        "parallel B&B incumbent bits disagree with its value"
    );
    BbResult {
        solution,
        proven: !truncated.load(Ordering::Relaxed),
        nodes: total_nodes.load(Ordering::Relaxed),
        root_lp,
        fixed_at_root: 0,
    }
}

/// The shared incumbent. Value and bits change together under one lock,
/// so a slower thread can never pair a better value with worse bits. The
/// atomic mirrors the locked value for lock-free pruning; it is written
/// only under the lock and never runs ahead of it, so pruning on it is
/// always sound.
struct Incumbent {
    /// `None` until a worker beats the greedy seed.
    best: Mutex<(i64, Option<BitVec>)>,
    hint: AtomicI64,
}

struct CellProver<'a> {
    inst: &'a Instance,
    surrogate: &'a Surrogate,
    order: &'a [usize],
    split_len: usize,
    node_limit: u64,
    nodes: u64,
    truncated: bool,
    incumbent: &'a Incumbent,
}

impl CellProver<'_> {
    /// Publish an improvement: compare and replace value and bits together.
    fn publish(&self, partial: &Solution) {
        let value = partial.value();
        // The slot is replaced wholesale, never partially written, so
        // recovering a poisoned lock is safe.
        let mut best = self
            .incumbent
            .best
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if value > best.0 {
            *best = (value, Some(partial.bits().clone()));
            self.incumbent.hint.store(value, Ordering::Relaxed);
        }
    }

    fn dive(&mut self, partial: &mut Solution, k: usize, s_remaining: i64) {
        self.nodes += 1;
        if self.nodes > self.node_limit {
            self.truncated = true;
            return;
        }
        if partial.value() > self.incumbent.hint.load(Ordering::Relaxed) {
            self.publish(partial);
        }
        if k == self.order.len() {
            return;
        }
        let incumbent = self.incumbent.hint.load(Ordering::Relaxed);
        let bound = partial.value() as f64
            + self
                .surrogate
                .dantzig_suffix(self.inst, &self.order[k..], s_remaining);
        if bound < incumbent as f64 + 1.0 - 1e-6 {
            return;
        }
        debug_assert!(k >= self.split_len, "split prefix is fixed");
        let j = self.order[k];
        if partial.fits(self.inst, j) {
            partial.add(self.inst, j);
            self.dive(partial, k + 1, s_remaining - self.surrogate.weights[j]);
            partial.drop(self.inst, j);
            if self.truncated {
                return;
            }
        }
        self.dive(partial, k + 1, s_remaining);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch_bound::solve;
    use mkp::generate::{fp_instance, uncorrelated_instance};

    #[test]
    fn matches_sequential_dfs() {
        for seed in 0..10 {
            let inst = uncorrelated_instance("par", 22, 3, 0.5, seed);
            let seq = solve(&inst, &BbConfig::default());
            for workers in [1usize, 2, 4] {
                let par = solve_parallel(&inst, &BbConfig::default(), workers);
                assert!(par.proven, "seed {seed} workers {workers}");
                assert_eq!(
                    par.solution.value(),
                    seq.solution.value(),
                    "seed {seed} workers {workers}"
                );
            }
        }
    }

    #[test]
    fn oversubscribed_runs_return_the_optimum_with_matching_bits() {
        // More provers than cores maximizes preemption between a value
        // comparison and the bits it belongs to — the window in which a
        // split publish used to let a slower thread pair the best value
        // with worse bits.
        for seed in 0..12 {
            let inst = uncorrelated_instance("race", 22, 3, 0.5, 100 + seed);
            let optimum = solve(&inst, &BbConfig::default()).solution.value();
            for rep in 0..10 {
                for workers in [8usize, 16] {
                    let par = solve_parallel(&inst, &BbConfig::default(), workers);
                    let recomputed = Solution::from_bits(&inst, par.solution.bits().clone());
                    let ctx = format!("seed {seed} rep {rep} workers {workers}");
                    assert!(par.proven, "{ctx}");
                    assert!(recomputed.is_feasible(&inst), "{ctx}");
                    assert_eq!(recomputed.value(), par.solution.value(), "{ctx}");
                    assert_eq!(par.solution.value(), optimum, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn matches_on_fp_sample() {
        for k in [0usize, 5, 20, 36, 41] {
            let inst = fp_instance(k);
            let seq = solve(&inst, &BbConfig::default());
            let par = solve_parallel(&inst, &BbConfig::default(), 4);
            assert!(par.proven, "{}", inst.name());
            assert_eq!(
                par.solution.value(),
                seq.solution.value(),
                "{}",
                inst.name()
            );
        }
    }

    #[test]
    fn non_power_of_two_workers_rounded() {
        let inst = uncorrelated_instance("rw", 18, 3, 0.5, 3);
        let seq = solve(&inst, &BbConfig::default());
        for workers in [3usize, 5, 6] {
            let par = solve_parallel(&inst, &BbConfig::default(), workers);
            assert!(par.proven);
            assert_eq!(par.solution.value(), seq.solution.value());
        }
    }

    #[test]
    fn node_limit_truncates_gracefully() {
        let inst = fp_instance(38);
        let r = solve_parallel(
            &inst,
            &BbConfig {
                node_limit: 8,
                ..BbConfig::default()
            },
            4,
        );
        assert!(r.solution.is_feasible(&inst));
    }

    #[test]
    fn solution_always_feasible_and_consistent() {
        for seed in 0..5 {
            let inst = uncorrelated_instance("fc", 20, 4, 0.5, seed);
            let r = solve_parallel(&inst, &BbConfig::default(), 4);
            assert!(r.solution.is_feasible(&inst));
            assert!(r.solution.check_consistent(&inst));
        }
    }
}
