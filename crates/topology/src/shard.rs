//! Grouping a [`PartitionPlan`](crate::PartitionPlan)'s partitions into simulation shards.
//!
//! The sharded runner (`parsched-core::sharded`) splits one run into
//! shards that each simulate a machine of their own partitions on their
//! own thread. Partitions are the natural cut: the paper's machine wires
//! each partition as its own closed interconnect (the C004 crossbar links
//! partitions only through the host), so a partition never exchanges
//! network traffic with another and no event crosses between shards built
//! from whole partitions. What couples them is the host's
//! super-scheduler, which the runner's leader serves. A [`ShardPlan`]
//! records the partition → shard assignment.
//!
//! Shards are contiguous runs of partitions with near-equal partition
//! counts, so the assignment is a pure function of `(partitions, shards)` —
//! reproducibility never depends on a hash order. [`ShardPlan::fold_after`]
//! then lets the last shard a run's jobs reach absorb the idle shards
//! after it, keeping the cut contiguous.

/// An assignment of a plan's partitions to `K` simulation shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// `of_partition[p]` is the shard owning partition `p`.
    pub of_partition: Vec<usize>,
    /// Number of shards (`1 + max(of_partition)`).
    pub shards: usize,
}

impl ShardPlan {
    /// Group `partitions` contiguous partitions into at most `shards`
    /// near-equal shards. More shards than partitions clamps to one
    /// partition per shard (a shard cannot cut below partition granularity
    /// — a partition's nodes share one interconnect and one job state).
    ///
    /// # Panics
    /// Panics when either count is zero.
    pub fn contiguous(partitions: usize, shards: usize) -> ShardPlan {
        assert!(partitions > 0, "need at least one partition");
        assert!(shards > 0, "need at least one shard");
        let k = shards.min(partitions);
        // First `rem` shards get `base + 1` partitions, the rest `base`.
        let base = partitions / k;
        let rem = partitions % k;
        let mut of_partition = Vec::with_capacity(partitions);
        for s in 0..k {
            let size = base + usize::from(s < rem);
            of_partition.extend(std::iter::repeat_n(s, size));
        }
        ShardPlan {
            of_partition,
            shards: k,
        }
    }

    /// Fold every shard after the one owning partition `last` into that
    /// shard: the plan keeps shards `0..=shard_of(last)` and the last of
    /// them also owns every partition after `last`. The cut stays
    /// contiguous, so each partition still has exactly one owner; folding
    /// after a partition of the last shard changes nothing.
    ///
    /// # Panics
    /// Panics when `last` is not a partition of the plan.
    pub fn fold_after(mut self, last: usize) -> ShardPlan {
        let owner = self.of_partition[last];
        self.of_partition[last..].fill(owner);
        self.shards = owner + 1;
        self
    }

    /// Number of partitions covered by the plan.
    pub fn partitions(&self) -> usize {
        self.of_partition.len()
    }

    /// The shard owning partition `p`.
    pub fn shard_of(&self, p: usize) -> usize {
        self.of_partition[p]
    }

    /// The partitions owned by shard `s`, in ascending order.
    pub fn partitions_of(&self, s: usize) -> Vec<usize> {
        self.range_of(s).collect()
    }

    /// The contiguous partition range owned by shard `s` (empty past the
    /// last shard).
    pub fn range_of(&self, s: usize) -> std::ops::Range<usize> {
        let start = self.of_partition.partition_point(|&o| o < s);
        let end = self.of_partition.partition_point(|&o| o <= s);
        start..end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split_is_blocked_and_balanced() {
        let plan = ShardPlan::contiguous(8, 4);
        assert_eq!(plan.shards, 4);
        assert_eq!(plan.of_partition, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        for s in 0..4 {
            assert_eq!(plan.partitions_of(s).len(), 2);
            assert_eq!(plan.range_of(s), 2 * s..2 * s + 2);
        }
    }

    #[test]
    fn uneven_split_front_loads_the_remainder() {
        let plan = ShardPlan::contiguous(7, 3);
        assert_eq!(plan.of_partition, vec![0, 0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn oversubscription_clamps_to_partition_count() {
        let plan = ShardPlan::contiguous(4, 8);
        assert_eq!(plan.shards, 4);
        assert_eq!(plan.of_partition, vec![0, 1, 2, 3]);
    }

    #[test]
    fn single_shard_owns_everything() {
        let plan = ShardPlan::contiguous(5, 1);
        assert_eq!(plan.of_partition, vec![0; 5]);
        assert_eq!(plan.partitions_of(0), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn folding_merges_the_tail_into_the_last_kept_shard() {
        // [0,0,1,1,2,2,3,3]: partition 3 is shard 1's, so shards 2 and 3
        // join shard 1.
        let plan = ShardPlan::contiguous(8, 4).fold_after(3);
        assert_eq!(plan.shards, 2);
        assert_eq!(plan.of_partition, vec![0, 0, 1, 1, 1, 1, 1, 1]);
        assert_eq!(plan.range_of(1), 2..8);
        // Folding after the first partition leaves one shard.
        let plan = ShardPlan::contiguous(7, 3).fold_after(0);
        assert_eq!(plan.shards, 1);
        assert_eq!(plan.of_partition, vec![0; 7]);
    }

    #[test]
    #[should_panic]
    fn folding_past_the_plan_panics() {
        let _ = ShardPlan::contiguous(4, 2).fold_after(4);
    }

    #[test]
    fn folded_plans_stay_contiguous_and_keep_every_partition() {
        for parts in 1..20 {
            for k in 1..10 {
                let whole = ShardPlan::contiguous(parts, k);
                for last in 0..parts {
                    let plan = whole.clone().fold_after(last);
                    assert_eq!(plan.partitions(), parts);
                    // Up to `last`, the cut is the contiguous one.
                    assert_eq!(plan.of_partition[..=last], whole.of_partition[..=last]);
                    assert_eq!(plan.shards, whole.shard_of(last) + 1);
                    let covered: usize = (0..plan.shards).map(|s| plan.range_of(s).len()).sum();
                    assert_eq!(covered, parts);
                    assert_eq!(plan.range_of(plan.shards - 1).end, parts);
                    if plan.shards == whole.shards {
                        assert_eq!(plan, whole, "folding in the last shard changes nothing");
                    }
                }
            }
        }
    }

    #[test]
    fn assignment_is_contiguous_and_monotone() {
        for parts in 1..20 {
            for k in 1..10 {
                let plan = ShardPlan::contiguous(parts, k);
                assert_eq!(plan.partitions(), parts);
                let mut prev = 0;
                for &s in &plan.of_partition {
                    assert!(s == prev || s == prev + 1, "non-contiguous assignment");
                    prev = s;
                }
                assert_eq!(prev + 1, plan.shards);
                for s in 0..plan.shards {
                    assert_eq!(plan.range_of(s).collect::<Vec<_>>(), plan.partitions_of(s));
                }
            }
        }
    }
}
