//! The simulated parallel machine.
//!
//! A deterministic cost model standing in for the paper's 8-processor
//! Alliant FX/8: `PARALLEL DO` loops are charged as a static block schedule
//! — fork overhead, the maximum per-processor chunk cost, and a barrier.
//! [`Machine::block_charge`] is that one formula: `Simulate` runs feed it
//! the blocks they executed, the estimator feeds it predicted costs.
//! Because the charge is computed from interpreter op counts, speedup
//! *shapes* (who wins, where granularity crossovers fall) are reproducible
//! on any host.

/// Machine parameters in virtual operation units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    /// Number of processors.
    pub procs: usize,
    /// Cost to fork a parallel region.
    pub fork_cost: f64,
    /// Cost of the closing barrier.
    pub barrier_cost: f64,
    /// Per-iteration scheduling overhead.
    pub dispatch_cost: f64,
}

impl Machine {
    /// An 8-processor machine with Alliant-like relative overheads.
    pub fn alliant8() -> Machine {
        Machine { procs: 8, fork_cost: 800.0, barrier_cost: 200.0, dispatch_cost: 2.0 }
    }

    /// Same overheads with a different processor count.
    pub fn with_procs(procs: usize) -> Machine {
        Machine { procs, ..Machine::alliant8() }
    }

    /// Charge for a parallel loop run as static blocks, from each block's
    /// summed iteration cost and iteration count: fork, the worst block
    /// with its per-iteration dispatch, and the barrier. With no blocks
    /// (an empty loop) only the overheads remain.
    pub fn block_charge(&self, blocks: impl IntoIterator<Item = (f64, usize)>) -> f64 {
        let mut worst: f64 = 0.0;
        for (cost, len) in blocks {
            worst = worst.max(cost + self.dispatch_cost * len as f64);
        }
        self.fork_cost + worst + self.barrier_cost
    }

    /// Charge for a parallel loop whose iterations cost `iter_costs`
    /// (virtual ops each), under static block scheduling.
    pub fn parallel_charge(&self, iter_costs: &[f64]) -> f64 {
        let chunk = iter_costs.len().div_ceil(self.procs.max(1)).max(1);
        self.block_charge(iter_costs.chunks(chunk).map(|c| (c.iter().sum(), c.len())))
    }

    /// Serial charge for the same iterations (no overheads).
    pub fn serial_charge(&self, iter_costs: &[f64]) -> f64 {
        iter_costs.iter().sum()
    }

    /// [`Machine::parallel_charge`] for `trip` iterations that all cost
    /// `iter_cost`, in O(1) time and space — no `vec![cost; trip]`
    /// materialization. With uniform nonnegative costs the worst static
    /// block is always a full-size chunk, so only the chunk length matters.
    /// Equals the slice path exactly whenever `chunk * iter_cost` is exact
    /// in f64 — true for the estimator, whose costs are integral-valued.
    pub fn parallel_charge_uniform(&self, iter_cost: f64, trip: usize) -> f64 {
        let chunk = trip.div_ceil(self.procs.max(1));
        self.block_charge([(chunk as f64 * iter_cost, chunk)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_split_speedup() {
        let m = Machine::with_procs(4);
        let iters = vec![100.0; 400];
        let par = m.parallel_charge(&iters);
        let ser = m.serial_charge(&iters);
        let speedup = ser / par;
        assert!(speedup > 3.5 && speedup <= 4.0, "speedup {speedup}");
    }

    #[test]
    fn tiny_loop_slower_in_parallel() {
        // Granularity: a 4-iteration cheap loop loses to fork+barrier.
        let m = Machine::alliant8();
        let iters = vec![3.0; 4];
        assert!(m.parallel_charge(&iters) > m.serial_charge(&iters));
    }

    #[test]
    fn empty_loop_costs_overhead_only() {
        let m = Machine::alliant8();
        assert_eq!(m.parallel_charge(&[]), m.fork_cost + m.barrier_cost);
    }

    #[test]
    fn uniform_fast_path_matches_vec_path() {
        // The O(1) fast path must agree exactly with materializing the
        // iteration vector, across trip counts that exercise empty, shorter
        // -than-P, evenly divisible, and ragged-last-chunk schedules.
        for procs in [1, 2, 8] {
            let m = Machine::with_procs(procs);
            for cost in [0.0, 1.0, 3.0, 117.0] {
                for trip in [0usize, 1, 5, 8, 100, 1000, 1001] {
                    let fast = m.parallel_charge_uniform(cost, trip);
                    let slow = m.parallel_charge(&vec![cost; trip]);
                    assert_eq!(
                        fast, slow,
                        "procs={procs} cost={cost} trip={trip}: {fast} != {slow}"
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_zero_trip_is_overhead_only() {
        let m = Machine::alliant8();
        assert_eq!(m.parallel_charge_uniform(5.0, 0), m.fork_cost + m.barrier_cost);
    }

    #[test]
    fn imbalanced_chunks_bound_by_worst() {
        let m = Machine::with_procs(2);
        // First half expensive, second half cheap: static blocks suffer.
        let mut iters = vec![10.0; 50];
        iters.extend(vec![1.0; 50]);
        let par = m.parallel_charge(&iters);
        assert!(par >= 500.0 + m.fork_cost + m.barrier_cost);
    }
}
