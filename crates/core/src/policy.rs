//! The scheduling policies of the paper (§2, §5.1).

use parsched_des::SimDuration;

/// The policy families compared by the paper.
///
/// The paper treats pure time-sharing as the hybrid policy with a single
/// partition (§5.1), so one variant covers both: `TimeSharing` with
/// partition size 16 *is* pure time-sharing; with smaller partitions it is
/// the hybrid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Static space-sharing: one job per partition, run to completion;
    /// everyone else waits in a global FCFS queue.
    Static,
    /// Time-sharing / hybrid: the whole batch is spread equitably over the
    /// partitions and round-robins inside each (RR-job quanta).
    TimeSharing,
}

impl PolicyKind {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Static => "static",
            PolicyKind::TimeSharing => "ts",
        }
    }
}

/// How per-process quanta are derived (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantumRule {
    /// The RR-job rule of Leutenegger & Vernon: `Q = (P / T) * q`, where `P`
    /// is the partition size, `T` the job's process count and `q` the basic
    /// quantum — each *job* then receives an equal share of the partition
    /// per round regardless of how many processes it has.
    RrJob {
        /// The basic quantum `q`.
        base: SimDuration,
    },
    /// The naive RR-process rule the paper argues against: every process
    /// gets the same fixed quantum, so jobs with more processes get more
    /// processing power.
    RrProcess {
        /// The fixed per-process quantum.
        quantum: SimDuration,
    },
}

impl Default for QuantumRule {
    fn default() -> Self {
        // The T805's native 2 ms low-priority quantum.
        QuantumRule::RrJob {
            base: SimDuration::from_millis(2),
        }
    }
}

impl QuantumRule {
    /// The quantum for a job of `width` processes on a partition of
    /// `partition_size` processors.
    ///
    /// ```
    /// use parsched_core::policy::QuantumRule;
    /// use parsched_des::SimDuration;
    ///
    /// let rule = QuantumRule::RrJob { base: SimDuration::from_millis(2) };
    /// // A 1-process job on 16 processors gets 16x the basic quantum...
    /// assert_eq!(rule.quantum(16, 1), SimDuration::from_millis(32));
    /// // ...so per round it receives the same processing power as a
    /// // 16-process job (which gets the basic quantum on every CPU).
    /// assert_eq!(rule.quantum(16, 16), SimDuration::from_millis(2));
    /// ```
    ///
    /// The T805 hardware timeslices at a fixed period, so the RR-job rule
    /// cannot produce quanta *below* the basic quantum: `Q = q * max(1,
    /// P/T)`. (Below-hardware quanta would also break the paper's
    /// observation that all policies coincide on single-processor
    /// partitions.)
    pub fn quantum(self, partition_size: usize, width: usize) -> SimDuration {
        match self {
            QuantumRule::RrJob { base } => {
                let ns = base.nanos() * partition_size as u64 / width.max(1) as u64;
                SimDuration::from_nanos(ns.max(base.nanos()))
            }
            QuantumRule::RrProcess { quantum } => quantum,
        }
    }
}

/// How time-sharing coordinates processes across a partition's nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Discipline {
    /// The paper's scheme: every node round-robins its local ready queue
    /// independently; nothing aligns a job's processes in time.
    #[default]
    Uncoordinated,
    /// Gang scheduling (Ousterhout-style coscheduling, the classic
    /// extension): jobs in a partition take turns in global slots — during
    /// a job's slot only its processes run, on every node of the partition
    /// simultaneously, so peers can exchange messages without waiting out
    /// other jobs' quanta.
    Gang {
        /// Slot length (all of a job's processes run for this long before
        /// the partition rotates to the next job).
        slot: SimDuration,
    },
    /// The first dynamic-quantum family member (MDTQRR-style): nodes still
    /// round-robin their local ready queues independently, but the quantum
    /// is *recomputed from the partition's current job population* instead
    /// of fixed at admission. Whenever a partition's membership changes
    /// (admission, completion, failure) the driver sets every resident
    /// job's quantum to the mean per-process *remaining* demand across the
    /// partition's jobs, floored at `base`. A lone job therefore runs
    /// essentially preemption-free; a short job mixed with long ones
    /// finishes within a couple of rounds (the SJF-approximating behaviour
    /// the dynamic-quantum RR literature aims for), with far fewer context
    /// switches than a fixed small quantum.
    DynamicQuantum {
        /// Quantum floor (also the initial quantum at admission, until the
        /// first recompute — which happens in the same event).
        base: SimDuration,
    },
}

/// How a job's processes are laid out over its partition's processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Rank `r` on processor `base + ((r + j) mod p)` where `j` is the
    /// job's admission index: consecutive ranks land on consecutive
    /// processors and *different jobs' coordinators land on different
    /// processors*, spreading memory and traffic (ablation).
    Staggered,
    /// Rank `r` on processor `base + (r mod p)`: the natural static mapping
    /// — every job's coordinator (rank 0) on the partition's first node,
    /// which concentrates coordinator memory and traffic there under
    /// multiprogramming (the regime the paper's memory-contention
    /// discussion describes). The default.
    #[default]
    RoundRobin,
    /// Rank `r` on processor `base + floor(r * p / T)`: consecutive ranks
    /// cluster on the same processor (block mapping), staggered per job
    /// like [`Placement::Staggered`].
    Blocked,
}

impl Placement {
    /// Map every rank of a `width`-process job onto a partition of
    /// `size` processors starting at global index `base`. `job_index` is
    /// the job's admission index (used by the staggered mappings).
    pub fn assign(self, base: usize, size: usize, width: usize, job_index: usize) -> Vec<u32> {
        let nodes: Vec<u32> = (base..base + size).map(|n| n as u32).collect();
        self.assign_nodes(&nodes, width, job_index)
    }

    /// Map every rank onto an explicit processor list (the surviving nodes
    /// of a partition after faults). With the full contiguous list this is
    /// exactly [`Placement::assign`]; with a shorter list the same mapping
    /// formulas apply over the remaining processors in order.
    pub fn assign_nodes(self, nodes: &[u32], width: usize, job_index: usize) -> Vec<u32> {
        let size = nodes.len();
        assert!(size >= 1);
        (0..width)
            .map(|r| {
                let off = match self {
                    Placement::Staggered => (r + job_index) % size,
                    Placement::RoundRobin => r % size,
                    Placement::Blocked => (r * size / width + job_index) % size,
                };
                nodes[off]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rr_job_quantum_formula() {
        let rule = QuantumRule::RrJob {
            base: SimDuration::from_millis(2),
        };
        // Adaptive architecture (T = p): always the basic quantum.
        assert_eq!(rule.quantum(16, 16), SimDuration::from_millis(2));
        assert_eq!(rule.quantum(4, 4), SimDuration::from_millis(2));
        // Fixed architecture (T = 16) on a 4-processor partition: clamped
        // to the hardware quantum.
        assert_eq!(rule.quantum(4, 16), SimDuration::from_millis(2));
        // A one-process job on a 16-processor partition: 32 ms.
        assert_eq!(rule.quantum(16, 1), SimDuration::from_millis(32));
    }

    #[test]
    fn rr_job_quantum_never_zero() {
        let rule = QuantumRule::RrJob {
            base: SimDuration::from_nanos(1),
        };
        assert!(rule.quantum(1, 16) > SimDuration::ZERO);
    }

    #[test]
    fn rr_process_is_constant() {
        let rule = QuantumRule::RrProcess {
            quantum: SimDuration::from_millis(2),
        };
        assert_eq!(rule.quantum(4, 16), SimDuration::from_millis(2));
        assert_eq!(rule.quantum(16, 1), SimDuration::from_millis(2));
    }

    #[test]
    fn round_robin_placement() {
        let p = Placement::RoundRobin.assign(8, 4, 6, 3);
        assert_eq!(p, vec![8, 9, 10, 11, 8, 9]);
    }

    #[test]
    fn blocked_placement() {
        let p = Placement::Blocked.assign(0, 4, 8, 0);
        assert_eq!(p, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn staggered_moves_coordinators_apart() {
        let a = Placement::Staggered.assign(0, 4, 4, 0);
        let b = Placement::Staggered.assign(0, 4, 4, 1);
        assert_eq!(a, vec![0, 1, 2, 3]);
        assert_eq!(b, vec![1, 2, 3, 0]);
    }

    #[test]
    fn one_processor_partition_takes_everything() {
        for placement in [
            Placement::Staggered,
            Placement::RoundRobin,
            Placement::Blocked,
        ] {
            let p = placement.assign(5, 1, 16, 7);
            assert_eq!(p, vec![5; 16]);
        }
    }

    #[test]
    fn adaptive_one_to_one() {
        let p = Placement::RoundRobin.assign(4, 4, 4, 9);
        assert_eq!(p, vec![4, 5, 6, 7]);
    }

    #[test]
    fn assign_nodes_skips_dead_processors() {
        // Partition [8..12) with node 9 dead: ranks wrap over the survivors.
        let p = Placement::RoundRobin.assign_nodes(&[8, 10, 11], 6, 3);
        assert_eq!(p, vec![8, 10, 11, 8, 10, 11]);
        let s = Placement::Staggered.assign_nodes(&[8, 10, 11], 3, 1);
        assert_eq!(s, vec![10, 11, 8]);
    }

    #[test]
    fn assign_nodes_matches_assign_on_full_partition() {
        let nodes: Vec<u32> = (8..12).collect();
        for placement in [
            Placement::Staggered,
            Placement::RoundRobin,
            Placement::Blocked,
        ] {
            for width in [1, 4, 6, 16] {
                for j in 0..5 {
                    assert_eq!(
                        placement.assign(8, 4, width, j),
                        placement.assign_nodes(&nodes, width, j),
                    );
                }
            }
        }
    }
}
