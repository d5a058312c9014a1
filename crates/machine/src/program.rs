//! The program model.
//!
//! An application process is a straight-line list of [`Op`]s — compute
//! bursts, asynchronous mailbox sends, and blocking receives. The fork-join
//! and divide-and-conquer applications of the paper compile naturally to
//! this form because their communication structure is static. The workload
//! crate generates programs; the machine executes them.

use parsched_des::SimDuration;

/// Message tag for mailbox matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag(pub u32);

/// Rank of a process within its job (0 = the coordinator by convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rank(pub u32);

impl Rank {
    /// The rank as a `usize` for table lookups.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// One step of a process program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Burn CPU for the given (cost-model-derived) duration.
    Compute(SimDuration),
    /// Asynchronously send `bytes` to the job-local process `to`. The sender
    /// pays the send software overhead on the CPU, waits (if necessary) for
    /// an outgoing buffer, and then continues; delivery is the network's
    /// problem.
    Send {
        /// Destination rank within the same job.
        to: Rank,
        /// Payload size.
        bytes: u64,
        /// Mailbox tag the receiver matches on.
        tag: Tag,
    },
    /// Block until one message with `tag` is in this process's mailbox,
    /// then consume it (paying the receive overhead on the CPU).
    Recv {
        /// Tag to match.
        tag: Tag,
    },
    /// Block until `count` messages with `tag` have been consumed
    /// (a gather; equivalent to `count` consecutive `Recv`s).
    RecvAny {
        /// How many messages to consume.
        count: u32,
        /// Tag to match.
        tag: Tag,
    },
}

impl Op {
    /// True for operations that can block the process.
    pub fn can_block(&self) -> bool {
        !matches!(self, Op::Compute(_))
    }
}

/// A process blueprint: its program plus its resident memory footprint.
#[derive(Debug, Clone)]
pub struct ProcSpec {
    /// The straight-line program.
    pub program: Vec<Op>,
    /// Resident data + code footprint charged against the node the process
    /// is placed on, for the job's whole lifetime.
    pub mem_bytes: u64,
}

impl ProcSpec {
    /// Total CPU demand of this program: compute bursts only (messaging
    /// overheads are machine parameters, not program content).
    pub fn compute_demand(&self) -> SimDuration {
        self.program
            .iter()
            .map(|op| match op {
                Op::Compute(d) => *d,
                _ => SimDuration::ZERO,
            })
            .sum()
    }

    /// Total bytes this program sends.
    pub fn bytes_sent(&self) -> u64 {
        self.program
            .iter()
            .map(|op| match op {
                Op::Send { bytes, .. } => *bytes,
                _ => 0,
            })
            .sum()
    }

    /// Number of messages this program consumes.
    pub fn recv_count(&self) -> u64 {
        self.program
            .iter()
            .map(|op| match op {
                Op::Recv { .. } => 1,
                Op::RecvAny { count, .. } => *count as u64,
                _ => 0,
            })
            .sum()
    }

    /// Number of messages this program sends.
    pub fn send_count(&self) -> u64 {
        self.program
            .iter()
            .filter(|op| matches!(op, Op::Send { .. }))
            .count() as u64
    }
}

/// A complete job blueprint: one [`ProcSpec`] per rank.
#[derive(Debug, Clone, Default)]
pub struct JobSpec {
    /// Human-readable name (for traces and reports).
    pub name: String,
    /// Per-rank blueprints; `procs[0]` is the coordinator.
    pub procs: Vec<ProcSpec>,
    /// Bytes shipped through the host link when the job loads (code image
    /// plus initial data). `0` means "ship the whole resident footprint"
    /// ([`JobSpec::total_mem`]); workload generators set this to one code
    /// copy plus the data, since process workspaces need not be shipped.
    pub ship_bytes: u64,
}

impl JobSpec {
    /// Number of processes.
    pub fn width(&self) -> usize {
        self.procs.len()
    }

    /// Total CPU demand summed over all processes — the job's sequential
    /// service demand, used by the static policy's best/worst orderings.
    pub fn total_compute(&self) -> SimDuration {
        self.procs.iter().map(|p| p.compute_demand()).sum()
    }

    /// Total message payload bytes the job moves.
    pub fn total_bytes(&self) -> u64 {
        self.procs.iter().map(|p| p.bytes_sent()).sum()
    }

    /// Total resident memory of the whole job.
    pub fn total_mem(&self) -> u64 {
        self.procs.iter().map(|p| p.mem_bytes).sum()
    }

    /// Bytes shipped through the host link at load time.
    pub fn effective_ship_bytes(&self) -> u64 {
        if self.ship_bytes == 0 {
            self.total_mem()
        } else {
            self.ship_bytes
        }
    }

    /// Sanity-check the message pattern: every receive must have a matching
    /// send (same tag, counted job-wide). Returns `Err` with a description
    /// of the imbalance. This catches workload-generator bugs before they
    /// become simulation deadlocks.
    pub fn check_balanced(&self) -> Result<(), String> {
        use std::collections::HashMap;
        let mut balance: HashMap<(Rank, u32), i64> = HashMap::new();
        for (rank, proc_) in self.procs.iter().enumerate() {
            for op in &proc_.program {
                match op {
                    Op::Send { to, tag, .. } => {
                        if to.idx() >= self.procs.len() {
                            return Err(format!("rank {rank} sends to nonexistent rank {to:?}"));
                        }
                        *balance.entry((*to, tag.0)).or_insert(0) += 1;
                    }
                    Op::Recv { tag } => {
                        *balance.entry((Rank(rank as u32), tag.0)).or_insert(0) -= 1;
                    }
                    Op::RecvAny { count, tag } => {
                        *balance.entry((Rank(rank as u32), tag.0)).or_insert(0) -= *count as i64;
                    }
                    Op::Compute(_) => {}
                }
            }
        }
        for ((rank, tag), v) in balance {
            if v != 0 {
                return Err(format!(
                    "job '{}': rank {rank:?} tag {tag}: {} {}",
                    self.name,
                    v.abs(),
                    if v > 0 {
                        "sends unconsumed"
                    } else {
                        "receives unmatched"
                    },
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ping_pong() -> JobSpec {
        JobSpec {
            name: "pingpong".into(),
            ship_bytes: 0,
            procs: vec![
                ProcSpec {
                    program: vec![
                        Op::Compute(SimDuration::from_millis(1)),
                        Op::Send {
                            to: Rank(1),
                            bytes: 100,
                            tag: Tag(7),
                        },
                        Op::Recv { tag: Tag(8) },
                    ],
                    mem_bytes: 1000,
                },
                ProcSpec {
                    program: vec![
                        Op::Recv { tag: Tag(7) },
                        Op::Compute(SimDuration::from_millis(2)),
                        Op::Send {
                            to: Rank(0),
                            bytes: 50,
                            tag: Tag(8),
                        },
                    ],
                    mem_bytes: 2000,
                },
            ],
        }
    }

    #[test]
    fn aggregate_accessors() {
        let j = ping_pong();
        assert_eq!(j.width(), 2);
        assert_eq!(j.total_compute(), SimDuration::from_millis(3));
        assert_eq!(j.total_bytes(), 150);
        assert_eq!(j.total_mem(), 3000);
        assert_eq!(j.procs[0].send_count(), 1);
        assert_eq!(j.procs[0].recv_count(), 1);
    }

    #[test]
    fn balanced_job_passes_check() {
        assert!(ping_pong().check_balanced().is_ok());
    }

    #[test]
    fn unbalanced_job_detected() {
        let mut j = ping_pong();
        j.procs[1].program.push(Op::Recv { tag: Tag(9) });
        let err = j.check_balanced().unwrap_err();
        assert!(err.contains("tag 9"), "got: {err}");
    }

    #[test]
    fn out_of_range_destination_detected() {
        let mut j = ping_pong();
        j.procs[0].program.push(Op::Send {
            to: Rank(5),
            bytes: 1,
            tag: Tag(0),
        });
        let err = j.check_balanced().unwrap_err();
        assert!(err.contains("nonexistent"), "got: {err}");
    }

    #[test]
    fn recv_any_counts_as_many_recvs() {
        let j = JobSpec {
            name: "gather".into(),
            ship_bytes: 0,
            procs: vec![
                ProcSpec {
                    program: vec![Op::RecvAny {
                        count: 2,
                        tag: Tag(1),
                    }],
                    mem_bytes: 0,
                },
                ProcSpec {
                    program: vec![Op::Send {
                        to: Rank(0),
                        bytes: 1,
                        tag: Tag(1),
                    }],
                    mem_bytes: 0,
                },
                ProcSpec {
                    program: vec![Op::Send {
                        to: Rank(0),
                        bytes: 1,
                        tag: Tag(1),
                    }],
                    mem_bytes: 0,
                },
            ],
        };
        assert!(j.check_balanced().is_ok());
        assert_eq!(j.procs[0].recv_count(), 2);
    }
}
