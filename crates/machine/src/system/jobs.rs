//! Job lifecycle and process programs: admission, the serialized
//! host-link loader, spawn and completion, and the interpreter that
//! steps each process through its compute, send and receive ops.

use super::{Event, JobState, Machine, MsgSlab, Note, PhaseLoad};
use crate::memory::{AllocResult, AllocWaiter};
use crate::process::{JobId, PState, Phase, ProcKey, Process};
use crate::program::{Op, Rank, Tag};
use crate::rotation::SettleReason;
use parsched_des::{EventScheduler, SimTime};
use parsched_obs::ObsEvent;

impl Machine {
    pub(super) fn on_admit(
        &mut self,
        job: JobId,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        // The new job's processes may contend for an express worm's route:
        // hand the worm back to the flit path first.
        let part = self.net.partition_of(self.jobs[job.idx()].placement[0]);
        self.materialize_partition(part, now, sched);
        self.obs(now, ObsEvent::JobArrived { job: job.0 });
        let ship = self.jobs[job.idx()].ship_bytes;
        let j = &mut self.jobs[job.idx()];
        assert_eq!(j.state, JobState::Queued, "job admitted twice");
        j.state = JobState::Loading;
        j.submitted_at = now;
        // Ship the job's code + data through the single host link: loads
        // are globally serialized (FIFO in admission order). The floor
        // models loader occupancy this machine instance cannot see (jobs
        // admitted on other shards of a sharded run).
        let duration = self.cfg.load_duration(ship);
        let start = if self.loader_free_at > now {
            self.loader_free_at
        } else {
            now
        }
        .max(j.load_floor);
        self.loader_free_at = start + duration;
        // `loader_free_at` never decreases, so the loads form an ordered
        // stream.
        sched.schedule_ordered(self.loader_free_at, Event::LoadJob { job });
    }

    pub(super) fn on_load_job(
        &mut self,
        job: JobId,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        // Request the job's resident memory on every node it touches. Any
        // allocation that cannot be satisfied queues on that node's MMU;
        // the job spawns when the last grant lands.
        let per_node = self.jobs[job.idx()].mem_per_node.clone();
        let mut pending = 0;
        for (node, bytes) in per_node {
            if bytes == 0 {
                continue;
            }
            match self.nodes[node as usize]
                .mmu
                .request(now, bytes, AllocWaiter::JobLoad(job))
            {
                AllocResult::Granted => {}
                AllocResult::Queued => pending += 1,
            }
        }
        self.jobs[job.idx()].pending_allocs = pending;
        if pending == 0 {
            self.finish_load(job, now, sched);
        }
    }

    /// The job's memory is fully resident: spawn or park it.
    pub(super) fn finish_load(
        &mut self,
        job: JobId,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        if self.faults_on
            && self.jobs[job.idx()]
                .placement
                .iter()
                .any(|&n| self.dead[n as usize])
        {
            // A node this job was placed on crashed while it was loading:
            // the load is wasted and the job fails immediately (the
            // scheduler requeues it onto survivors).
            self.fail_job(job, now, sched);
            return;
        }
        if self.jobs[job.idx()].auto_start {
            self.spawn_job(job, now, sched);
        } else {
            self.jobs[job.idx()].state = JobState::Ready;
            self.notes.push(Note::JobReady(job));
        }
    }

    pub(super) fn spawn_job(
        &mut self,
        job: JobId,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        debug_assert!(
            matches!(
                self.jobs[job.idx()].state,
                JobState::Loading | JobState::Ready
            ),
            "spawning a job in the wrong state"
        );
        let spec = self.jobs[job.idx()].spec.take().expect("job spawned twice");
        let quantum = self.jobs[job.idx()].quantum;
        let placement = self.jobs[job.idx()].placement.clone();
        self.jobs[job.idx()].state = JobState::Running;
        self.jobs[job.idx()].loaded_at = now;
        let mut keys = Vec::with_capacity(spec.width());
        for (rank, pspec) in spec.procs.into_iter().enumerate() {
            let key = ProcKey(self.procs.len() as u32);
            keys.push(key);
            self.procs.push(Process::new(
                key,
                job,
                Rank(rank as u32),
                placement[rank],
                pspec.program,
                quantum,
                now,
            ));
        }
        self.jobs[job.idx()].proc_keys = keys.clone();
        if self.jobs[job.idx()].parked {
            for &key in &keys {
                self.procs[key.idx()].parked = true;
            }
        }
        self.notes.push(Note::JobLoaded(job));
        self.obs(now, ObsEvent::JobLoaded { job: job.0 });
        for key in keys {
            self.make_runnable(key, now, sched);
        }
    }

    pub(super) fn finish_process(
        &mut self,
        pk: ProcKey,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let p = &mut self.procs[pk.idx()];
        p.state = PState::Finished;
        p.finished_at = now;
        let job = p.job;
        let j = &mut self.jobs[job.idx()];
        j.live_procs -= 1;
        if j.live_procs == 0 {
            j.state = JobState::Done;
            j.finished_at = now;
            debug_assert!(
                j.mailboxes.iter().all(|m| m.is_empty()),
                "job '{}' finished with unconsumed messages",
                j.name
            );
            self.counters.jobs_completed += 1;
            let mem = j.mem_per_node.clone();
            for (node, bytes) in mem {
                if bytes > 0 {
                    self.release_memory(node, bytes, now, sched);
                }
            }
            self.notes.push(Note::JobCompleted(job));
            self.obs(now, ObsEvent::JobFinished { job: job.0 });
        }
    }

    /// Load the process's next CPU phase (possibly advancing over zero-cost
    /// ops). Returns `true` if the process needs the CPU, `false` if it
    /// blocked or finished (in which case its state has been updated and
    /// any finish bookkeeping done).
    pub(super) fn make_runnable(
        &mut self,
        pk: ProcKey,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) -> bool {
        match self.load_phase(pk, now) {
            PhaseLoad::NeedCpu => {
                self.enqueue_ready(pk, now, sched);
                true
            }
            PhaseLoad::Blocked => false,
            PhaseLoad::Finished => {
                self.finish_process(pk, now, sched);
                false
            }
        }
    }

    /// Mark a process Ready and put it on its node's low-priority queue —
    /// unless its job is parked (gang scheduling), in which case it stays
    /// Ready but off-queue until [`Machine::set_job_active`] releases it.
    pub(super) fn enqueue_ready(
        &mut self,
        pk: ProcKey,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let p = &mut self.procs[pk.idx()];
        p.state = PState::Ready;
        if p.parked {
            return;
        }
        let node = p.node;
        self.settle_cpu(node, SettleReason::Wakeup, sched);
        self.nodes[node as usize].cpu.low.push_back(pk);
        self.note_ready_depth(node, now);
        self.dispatch(node, now, sched);
    }

    /// Examine ops from `pc` until a CPU phase is loaded, the process
    /// blocks, or the program ends. Does not touch ready queues.
    fn load_phase(&mut self, pk: ProcKey, _now: SimTime) -> PhaseLoad {
        loop {
            let p = &self.procs[pk.idx()];
            let Some(op) = p.current_op() else {
                return PhaseLoad::Finished;
            };
            match *op {
                Op::Compute(d) => {
                    if d.is_zero() {
                        self.procs[pk.idx()].pc += 1;
                        continue;
                    }
                    let p = &mut self.procs[pk.idx()];
                    p.phase = Phase::Compute;
                    p.remaining = d;
                    return PhaseLoad::NeedCpu;
                }
                Op::Send { bytes, .. } => {
                    let cost = self.cfg.send_cost(bytes);
                    let p = &mut self.procs[pk.idx()];
                    p.phase = Phase::SendOverhead;
                    p.remaining = cost;
                    return PhaseLoad::NeedCpu;
                }
                Op::Recv { tag } => {
                    if self.try_claim(pk, tag) {
                        return PhaseLoad::NeedCpu;
                    }
                    self.procs[pk.idx()].state = PState::BlockedRecv(tag);
                    return PhaseLoad::Blocked;
                }
                Op::RecvAny { count, tag } => {
                    let p = &mut self.procs[pk.idx()];
                    if p.recv_left == 0 {
                        if count == 0 {
                            p.pc += 1;
                            continue;
                        }
                        p.recv_left = count;
                    }
                    if self.try_claim(pk, tag) {
                        return PhaseLoad::NeedCpu;
                    }
                    self.procs[pk.idx()].state = PState::BlockedRecv(tag);
                    return PhaseLoad::Blocked;
                }
            }
        }
    }

    /// Pop a matching message from the process's mailbox and load the
    /// receive-overhead phase. Returns `false` if no message matches.
    pub(super) fn try_claim(&mut self, pk: ProcKey, tag: Tag) -> bool {
        let (job, rank) = {
            let p = &self.procs[pk.idx()];
            (p.job, p.rank)
        };
        let messages = &self.messages;
        let pos = self.jobs[job.idx()].mailboxes[rank.idx()]
            .iter()
            .position(|&m| messages[m.idx()].as_ref().is_some_and(|mm| mm.tag == tag));
        let Some(pos) = pos else {
            return false;
        };
        let msg = self.jobs[job.idx()].mailboxes[rank.idx()]
            .remove(pos)
            .expect("position valid");
        let bytes = self.messages.live(msg).bytes;
        let cost = self.cfg.recv_cost(bytes);
        let p = &mut self.procs[pk.idx()];
        p.claimed = Some(msg);
        p.phase = Phase::RecvOverhead;
        p.remaining = cost;
        true
    }

    /// The loaded CPU phase just completed (remaining hit zero). Advance the
    /// program. Returns the next disposition (same meanings as
    /// [`Machine::load_phase`]).
    pub(super) fn complete_phase(
        &mut self,
        pk: ProcKey,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) -> PhaseLoad {
        let phase = self.procs[pk.idx()].phase;
        self.procs[pk.idx()].phase = Phase::Idle;
        match phase {
            Phase::Compute => {
                self.procs[pk.idx()].pc += 1;
                self.load_phase(pk, now)
            }
            Phase::SendOverhead => {
                // Overhead paid; now stage the message and (maybe) block for
                // the source buffer.
                if self.begin_injection(pk, now, sched) {
                    self.procs[pk.idx()].pc += 1;
                    self.load_phase(pk, now)
                } else {
                    self.procs[pk.idx()].state = PState::BlockedAlloc;
                    PhaseLoad::Blocked
                }
            }
            Phase::RecvOverhead => {
                let msg = self.procs[pk.idx()]
                    .claimed
                    .take()
                    .expect("RecvOverhead with no claimed message");
                self.consume_message(msg, now, sched);
                let p = &mut self.procs[pk.idx()];
                match p.current_op() {
                    Some(Op::Recv { .. }) => {
                        p.pc += 1;
                        self.load_phase(pk, now)
                    }
                    Some(Op::RecvAny { tag, .. }) => {
                        let tag = *tag;
                        p.recv_left -= 1;
                        if p.recv_left == 0 {
                            p.pc += 1;
                            self.load_phase(pk, now)
                        } else if self.try_claim(pk, tag) {
                            PhaseLoad::NeedCpu
                        } else {
                            self.procs[pk.idx()].state = PState::BlockedRecv(tag);
                            PhaseLoad::Blocked
                        }
                    }
                    other => panic!("RecvOverhead completed on non-recv op {other:?}"),
                }
            }
            Phase::Idle => panic!("complete_phase on Idle"),
        }
    }

    /// Requeue a process at its node's queue tail (unless parked). Callers
    /// dispatch afterwards.
    pub(super) fn requeue_ready(&mut self, pk: ProcKey, now: SimTime) {
        let p = &mut self.procs[pk.idx()];
        p.state = PState::Ready;
        if p.parked {
            return;
        }
        let node = p.node;
        self.nodes[node as usize].cpu.low.push_back(pk);
        self.note_ready_depth(node, now);
    }
}
