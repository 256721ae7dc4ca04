//! Per-shard discrete-event simulation of a contiguous node range.
//!
//! The fleet executor splits its nodes into contiguous ranges; each range
//! is one `ShardSim` owning the per-node event queues, per-node state,
//! radios and crash schedules of its nodes. Shards advance
//! independently to a common virtual-time barrier (`ShardSim::run_until`)
//! and never touch shared state — everything a round produces for the rest
//! of the system (aggregator jobs, controller observations) accumulates in
//! shard-local buffers the executor drains and merges deterministically at
//! the barrier.
//!
//! Determinism across shard counts rests on three properties:
//!
//! * every random stream is a per-node property (delivery draws, crash
//!   windows) or a pure function of the run seed (channel weather), so no
//!   draw depends on which shard a node landed in or on other nodes'
//!   traffic;
//! * nodes are causally independent between barriers — a node's events
//!   schedule only that node's future events — so processing order can
//!   only matter *per node*, and per-node order is fixed by the
//!   `(time, per-node sequence)` key regardless of interleaving;
//! * every floating-point accumulator is per-node; cross-node sums are
//!   folded by the executor in global node order at digest time.
//!
//! The second property is what the event queues exploit: instead of one
//! shard-wide heap ordering every event by `(time, node, nseq)`,
//! `ShardSim::run_until` walks its nodes in order and drains each node's
//! own tiny queue (`NodeQueues`) to the barrier in `(time, nseq)` order —
//! the global order restricted to one node, so every per-node RNG draw,
//! lifecycle query and sequence number happens exactly as under the heap.
//! Only the emission order of `jobs` and `obs` differs, and both are
//! sorted under unique total keys before anything reads them. The queues
//! live in one shard-wide slab, and arrivals are generated lazily (each
//! arrival schedules the node's next one), so memory is proportional to
//! in-flight work, not to `nodes x duration`.

use crate::config::RuntimeConfig;
use crate::lifecycle::NodeLifecycle;
use crate::link::{BurstProfile, LossyLink};
use std::sync::Arc;
use xpro_core::profile::SegmentProfile;

/// The bursty-channel profile of a configuration, when enabled.
pub(crate) fn burst_profile(cfg: &RuntimeConfig) -> Option<BurstProfile> {
    cfg.burst_enabled().then_some(BurstProfile {
        good_drop_rate: cfg.drop_rate,
        bad_drop_rate: cfg.burst_bad_rate,
        p_enter_bad: cfg.burst_p_enter,
        p_exit_bad: cfg.burst_p_exit,
        slot_s: cfg.burst_slot_s,
    })
}

/// Pooled payload of one in-flight frame-transmission event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct FramePayload {
    /// Arrival time of the segment the frame belongs to.
    pub arrival_s: f64,
    /// Frame index within the segment's plan.
    pub frame: u32,
    /// Retransmission attempt (0 = first try).
    pub attempt: u32,
    /// Plan epoch the segment arrived under.
    pub epoch: u32,
}

/// Where a shard's event handlers schedule a node's future events.
///
/// `local` is the node's offset in the shard and `nseq` its per-node push
/// sequence, strictly increasing per node. An implementation must pop
/// each node's events in `(time, nseq)` order; how it interleaves nodes
/// is free, because nodes are causally independent between barriers.
pub(crate) trait EventQueue: std::fmt::Debug {
    /// An empty queue for `nodes` nodes.
    fn for_nodes(nodes: usize) -> Self;
    /// Schedules one event; `frame` is `None` for an arrival.
    fn push(&mut self, local: usize, time_s: f64, nseq: u32, frame: Option<FramePayload>);
}

/// End of a node's event list.
const NIL: u32 = u32::MAX;

/// One pending event in a node's list.
#[derive(Clone, Copy, Debug)]
struct Queued {
    time_s: f64,
    nseq: u32,
    /// The next slot of the same node's list, or [`NIL`].
    next: u32,
    /// `None` marks an arrival.
    frame: Option<FramePayload>,
}

impl Queued {
    fn precedes(&self, time_s: f64, nseq: u32) -> bool {
        self.time_s
            .total_cmp(&time_s)
            .then(self.nseq.cmp(&nseq))
            .is_lt()
    }
}

/// Per-node event queues over one shard-wide slab.
///
/// Each node's pending events form a short singly linked list sorted by
/// `(time, nseq)`, threaded through the slab; freed slots are recycled,
/// never released. A node holds at most one pending arrival (arrivals are
/// generated lazily) plus one event per in-flight segment, so a list is a
/// handful of entries, sorted insertion is a short walk, and the slab is
/// O(in-flight work) for the whole shard.
#[derive(Debug)]
pub(crate) struct NodeQueues {
    /// First slot of each node's list, or [`NIL`].
    head: Vec<u32>,
    slab: Vec<Queued>,
    free: Vec<u32>,
}

impl EventQueue for NodeQueues {
    fn for_nodes(nodes: usize) -> Self {
        NodeQueues {
            head: vec![NIL; nodes],
            slab: Vec::new(),
            free: Vec::new(),
        }
    }

    fn push(&mut self, local: usize, time_s: f64, nseq: u32, frame: Option<FramePayload>) {
        let entry = Queued {
            time_s,
            nseq,
            next: NIL,
            frame,
        };
        let slot = if let Some(slot) = self.free.pop() {
            self.slab[slot as usize] = entry;
            slot
        } else {
            self.slab.push(entry);
            (self.slab.len() - 1) as u32
        };
        // Walk past every entry that precedes the new one, then link it in.
        let mut prev = NIL;
        let mut cur = self.head[local];
        while cur != NIL && self.slab[cur as usize].precedes(time_s, nseq) {
            prev = cur;
            cur = self.slab[cur as usize].next;
        }
        self.slab[slot as usize].next = cur;
        if prev == NIL {
            self.head[local] = slot;
        } else {
            self.slab[prev as usize].next = slot;
        }
    }
}

impl NodeQueues {
    /// Pops the node's earliest event strictly before `target_s`; `None`
    /// leaves the node parked at the barrier. Returns the event time and
    /// the frame payload (`None` for an arrival).
    fn pop_before(&mut self, local: usize, target_s: f64) -> Option<(f64, Option<FramePayload>)> {
        let slot = self.head[local];
        if slot == NIL {
            return None;
        }
        let entry = self.slab[slot as usize];
        if entry.time_s >= target_s {
            return None;
        }
        self.head[local] = entry.next;
        self.free.push(slot);
        Some((entry.time_s, entry.frame))
    }
}

/// One terminal frame outcome destined for the adaptive controller,
/// tagged with a total ordering key `(time_s, node, idx)` so the executor
/// can merge all shards' observations into one shard-count-independent
/// feed order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Obs {
    /// Virtual time of the terminal outcome.
    pub time_s: f64,
    /// Global node index.
    pub node: u32,
    /// Per-node observation sequence number.
    pub idx: u64,
    /// Attempts the planned frame cost.
    pub attempts: u64,
}

/// A segment whose wireless phase finished: ready for the aggregator CPU.
/// `(ready_s, node, seq)` is a total ordering key — unique per job, since
/// `seq` counts per node — so the executor's merged service order is
/// independent of sharding.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AggJobRec {
    /// When the segment's last frame cleared the channel.
    pub ready_s: f64,
    /// Global node index.
    pub node: u32,
    /// Per-node job emission sequence number.
    pub seq: u64,
    /// Arrival time of the segment (latency is measured from here).
    pub arrival_s: f64,
    /// Plan epoch the segment runs under.
    pub epoch: u32,
}

impl PartialEq for AggJobRec {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for AggJobRec {}
impl PartialOrd for AggJobRec {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for AggJobRec {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.ready_s
            .total_cmp(&other.ready_s)
            .then_with(|| self.node.cmp(&other.node))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Shard-side state and terminal counters of one node. Everything here is
/// a pure per-node quantity: counters merge by commutative sums, energies
/// are folded in node order by the executor's digest.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct NodeCore {
    /// Segments offered (arrivals seen).
    pub offered: u64,
    /// Segments abandoned after the retry budget.
    pub dropped: u64,
    /// Segments that missed their deadline.
    pub timed_out: u64,
    /// Segments lost to a crash window or a dead battery.
    pub lost_to_crash: u64,
    /// Segments shed by the controller's degradation tier.
    pub shed: u64,
    /// Whether the battery budget ran out.
    pub depleted: bool,
    /// Frame transmission attempts.
    pub frame_attempts: u64,
    /// Attempts lost to the channel.
    pub frame_drops: u64,
    /// Retransmissions scheduled.
    pub retries: u64,
    /// Front-end compute energy spent.
    pub compute_pj: f64,
    /// Radio energy spent.
    pub wireless_pj: f64,
    /// Aggregator-side receive energy caused by this node's frames
    /// (accumulated per node so the fold order is shard-independent).
    pub agg_rx_pj: f64,
    sensor_free_s: f64,
    nseq: u32,
    obs_idx: u64,
    job_seq: u64,
}

impl NodeCore {
    fn next_nseq(&mut self) -> u32 {
        self.nseq += 1;
        self.nseq
    }

    fn next_job_seq(&mut self) -> u64 {
        self.job_seq += 1;
        self.job_seq
    }

    /// Whether the battery budget is exhausted; marks the node depleted
    /// (once) when it is.
    fn deplete(&mut self, budget_pj: f64) -> bool {
        if budget_pj <= 0.0 || self.compute_pj + self.wireless_pj < budget_pj {
            return self.depleted;
        }
        self.depleted = true;
        true
    }
}

/// The discrete-event simulation of one contiguous node range. `Q` is the
/// event queue; the executor runs [`NodeQueues`].
#[derive(Debug)]
pub(crate) struct ShardSim<Q = NodeQueues> {
    /// Global index of the shard's first node.
    pub first_node: u32,
    /// Per-node shard-side state, indexed by local node offset.
    pub cores: Vec<NodeCore>,
    /// Per-node crash schedules.
    pub lives: Vec<NodeLifecycle>,
    /// Per-node radios.
    pub links: Vec<LossyLink>,
    /// Controller observations of the current round (drained at barriers).
    pub obs: Vec<Obs>,
    /// Aggregator jobs of the current round (drained at barriers).
    pub jobs: Vec<AggJobRec>,
    cfg: RuntimeConfig,
    period_s: f64,
    queue: Q,
    plans: Vec<Arc<SegmentProfile>>,
    epoch: u32,
    shed_every: Option<u64>,
    /// Per-node tenancy override: degraded nodes pin new arrivals to the
    /// fallback plan (epoch 1) until the tenant recovers.
    node_degraded: Vec<bool>,
    /// Per-node tenancy shed modulus, layered over the fleet-wide
    /// controller modulus (the node-specific one wins when set).
    node_shed: Vec<Option<u64>>,
    adaptive: bool,
}

impl<Q: EventQueue> ShardSim<Q> {
    /// Builds the shard for nodes `first_node .. first_node + count`,
    /// seeding each node's initial arrival (staggered across one period by
    /// *global* node index, exactly as the unsharded executor did).
    pub fn new(
        first_node: u32,
        count: u32,
        cfg: &RuntimeConfig,
        period_s: f64,
        plan: Arc<SegmentProfile>,
    ) -> Self {
        let mut cores = vec![NodeCore::default(); count as usize];
        let mut lives = Vec::with_capacity(count as usize);
        let mut links = Vec::with_capacity(count as usize);
        let burst = burst_profile(cfg);
        let mut queue = Q::for_nodes(count as usize);
        for (local, core) in cores.iter_mut().enumerate() {
            let node = first_node + local as u32;
            lives.push(if cfg.lifecycle_enabled() {
                NodeLifecycle::generate(
                    node as usize,
                    cfg.mtbf_s,
                    cfg.mttr_s,
                    cfg.reboot_warmup_s,
                    cfg.duration_s,
                    cfg.seed,
                )
            } else {
                NodeLifecycle::healthy()
            });
            links.push(LossyLink::for_node(
                cfg.drop_rate,
                burst,
                cfg.seed,
                u64::from(node),
            ));
            let offset = if cfg.stagger {
                period_s * f64::from(node) / cfg.nodes as f64
            } else {
                0.0
            };
            if offset < cfg.duration_s {
                queue.push(local, offset, core.next_nseq(), None);
            }
        }
        ShardSim {
            first_node,
            cores,
            lives,
            links,
            obs: Vec::new(),
            jobs: Vec::new(),
            cfg: cfg.clone(),
            period_s,
            queue,
            plans: vec![plan],
            epoch: 0,
            shed_every: None,
            node_degraded: vec![false; count as usize],
            node_shed: vec![None; count as usize],
            adaptive: cfg.adaptive,
        }
    }

    /// Installs the tenancy fallback plan at epoch 1 without making it
    /// current: degraded nodes pin their arrivals to it. Must be called
    /// (once, on every shard) before any controller plan is installed so
    /// epoch indices agree across shards.
    pub fn install_fallback(&mut self, plan: Arc<SegmentProfile>) {
        debug_assert_eq!(self.plans.len(), 1, "fallback must be epoch 1");
        self.plans.push(plan);
    }

    /// Appends a new plan epoch (broadcast by the executor at a barrier);
    /// segments arriving from the next event on run under it.
    pub fn install_plan(&mut self, plan: Arc<SegmentProfile>) {
        self.plans.push(plan);
        self.epoch = (self.plans.len() - 1) as u32;
    }

    /// Sets the shed modulus in effect (broadcast at barriers): `Some(k)`
    /// sheds every per-node segment whose sequence is not a multiple of
    /// `k`.
    pub fn set_shed_every(&mut self, shed_every: Option<u64>) {
        self.shed_every = shed_every;
    }

    /// Sets one node's tenancy policy (broadcast at barriers): `degraded`
    /// pins the node's new arrivals to the fallback plan, `shed` layers a
    /// node-specific shed modulus over the fleet-wide one.
    pub fn set_node_policy(&mut self, node: u32, degraded: bool, shed: Option<u64>) {
        let local = (node - self.first_node) as usize;
        self.node_degraded[local] = degraded;
        self.node_shed[local] = shed;
    }

    fn dispatch(&mut self, time_s: f64, local: usize, frame: Option<FramePayload>) {
        let node = self.first_node + local as u32;
        match frame {
            None => self.on_arrival(time_s, node, local),
            Some(p) => self.on_frame(time_s, node, local, p),
        }
    }

    fn observe(&mut self, time_s: f64, node: u32, local: usize, attempts: u64) {
        if !self.adaptive {
            return;
        }
        let idx = self.cores[local].obs_idx;
        self.cores[local].obs_idx += 1;
        self.obs.push(Obs {
            time_s,
            node,
            idx,
            attempts,
        });
    }

    fn on_arrival(&mut self, t: f64, node: u32, local: usize) {
        // Lazy arrival generation: the node's next arrival is queued
        // *before* this segment's first frame event, so at equal times the
        // arrival outranks it (smaller nseq) — the order the old eager
        // pre-generation produced.
        let next_t = t + self.period_s;
        if next_t < self.cfg.duration_s {
            let nseq = self.cores[local].next_nseq();
            self.queue.push(local, next_t, nseq, None);
        }
        self.cores[local].offered += 1;
        // A down (or dead) node produces no segment.
        if self.lives[local].down_at(t).is_some()
            || self.cores[local].deplete(self.cfg.battery_budget_pj)
        {
            self.cores[local].lost_to_crash += 1;
            return;
        }
        if let Some(keep) = self.node_shed[local].or(self.shed_every) {
            if !(self.cores[local].offered - 1).is_multiple_of(keep) {
                self.cores[local].shed += 1;
                return;
            }
        }
        let epoch = if self.node_degraded[local] {
            1
        } else {
            self.epoch
        };
        let plan = &self.plans[epoch as usize];
        let (front_s, compute_pj, has_frames) = (
            plan.front_s,
            plan.sensor_compute_pj,
            !plan.frames.is_empty(),
        );
        let core = &mut self.cores[local];
        // The node's front end is serial across its own segments.
        let start = t.max(core.sensor_free_s);
        let done = start + front_s;
        core.sensor_free_s = done;
        core.compute_pj += compute_pj;
        if has_frames {
            let nseq = core.next_nseq();
            self.queue.push(
                local,
                done,
                nseq,
                Some(FramePayload {
                    arrival_s: t,
                    frame: 0,
                    attempt: 0,
                    epoch,
                }),
            );
        } else {
            let seq = core.next_job_seq();
            self.jobs.push(AggJobRec {
                ready_s: done,
                node,
                seq,
                arrival_s: t,
                epoch,
            });
        }
    }

    fn on_frame(&mut self, t: f64, node: u32, local: usize, p: FramePayload) {
        // A crash since the segment arrived wipes its in-flight state; a
        // dead battery ends the node.
        if self.lives[local].interrupted(p.arrival_s, t)
            || self.cores[local].deplete(self.cfg.battery_budget_pj)
        {
            self.cores[local].lost_to_crash += 1;
            return;
        }
        let deadline = p.arrival_s + self.cfg.timeout_s;
        if t > deadline {
            self.cores[local].timed_out += 1;
            if p.attempt > 0 {
                self.observe(t, node, local, u64::from(p.attempt));
            }
            return;
        }
        let (airtime_s, sensor_pj, agg_pj, nframes) = {
            let plan = &self.plans[p.epoch as usize];
            let fp = &plan.frames[p.frame as usize];
            (
                fp.airtime_s,
                fp.sensor_pj,
                fp.agg_pj,
                plan.frames.len() as u32,
            )
        };
        let sent = self.links[local].transmit(t, airtime_s);
        {
            let core = &mut self.cores[local];
            core.frame_attempts += 1;
            // The radio energy is spent whether or not the frame survives
            // the channel: the receiver listens through corrupted frames
            // too.
            core.wireless_pj += sensor_pj;
            core.agg_rx_pj += agg_pj;
        }
        if sent.delivered {
            self.observe(t, node, local, u64::from(p.attempt) + 1);
            if p.frame + 1 < nframes {
                let nseq = self.cores[local].next_nseq();
                self.queue.push(
                    local,
                    sent.finish_s,
                    nseq,
                    Some(FramePayload {
                        arrival_s: p.arrival_s,
                        frame: p.frame + 1,
                        attempt: 0,
                        epoch: p.epoch,
                    }),
                );
            } else {
                let seq = self.cores[local].next_job_seq();
                self.jobs.push(AggJobRec {
                    ready_s: sent.finish_s,
                    node,
                    seq,
                    arrival_s: p.arrival_s,
                    epoch: p.epoch,
                });
            }
        } else {
            self.cores[local].frame_drops += 1;
            if p.attempt >= self.cfg.max_retries {
                self.cores[local].dropped += 1;
                self.observe(t, node, local, u64::from(p.attempt) + 1);
                return;
            }
            let retry_at =
                sent.finish_s + self.cfg.backoff_base_s * f64::from(1u32 << p.attempt.min(20));
            if retry_at > deadline {
                self.cores[local].timed_out += 1;
                self.observe(t, node, local, u64::from(p.attempt) + 1);
                return;
            }
            self.cores[local].retries += 1;
            let nseq = self.cores[local].next_nseq();
            self.queue.push(
                local,
                retry_at,
                nseq,
                Some(FramePayload {
                    attempt: p.attempt + 1,
                    ..p
                }),
            );
        }
    }
}

impl ShardSim {
    /// Processes every event strictly before `target_s` (the next
    /// barrier; `INFINITY` drains the shard), node by node in local order:
    /// each node drains its own queue to the barrier before the next node
    /// starts.
    pub fn run_until(&mut self, target_s: f64) {
        for local in 0..self.cores.len() {
            while let Some((time_s, frame)) = self.queue.pop_before(local, target_s) {
                self.dispatch(time_s, local, frame);
            }
        }
    }
}

/// The shard-wide event heap the per-node queues replaced, kept as the
/// reference order for the tests: every event of the shard in one binary
/// heap under the global `(time, node, nseq)` key, with frame payloads
/// pooled in a slab.
#[cfg(test)]
mod oracle {
    use super::{EventQueue, FramePayload, ShardSim};
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// Sentinel slab slot marking an arrival event.
    const ARRIVAL_SLOT: u32 = u32::MAX;

    #[derive(Clone, Copy, Debug)]
    struct HeapEntry {
        time_s: f64,
        local: u32,
        nseq: u32,
        slot: u32,
    }

    impl PartialEq for HeapEntry {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for HeapEntry {}
    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for HeapEntry {
        // BinaryHeap is a max-heap: invert so the earliest entry pops first.
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .time_s
                .total_cmp(&self.time_s)
                .then_with(|| other.local.cmp(&self.local))
                .then_with(|| other.nseq.cmp(&self.nseq))
        }
    }

    #[derive(Debug, Default)]
    pub(super) struct ShardHeap {
        heap: BinaryHeap<HeapEntry>,
        slab: Vec<FramePayload>,
        free: Vec<u32>,
    }

    impl EventQueue for ShardHeap {
        fn for_nodes(_nodes: usize) -> Self {
            ShardHeap::default()
        }

        fn push(&mut self, local: usize, time_s: f64, nseq: u32, frame: Option<FramePayload>) {
            let slot = match frame {
                None => ARRIVAL_SLOT,
                Some(payload) => {
                    if let Some(slot) = self.free.pop() {
                        self.slab[slot as usize] = payload;
                        slot
                    } else {
                        self.slab.push(payload);
                        (self.slab.len() - 1) as u32
                    }
                }
            };
            self.heap.push(HeapEntry {
                time_s,
                local: local as u32,
                nseq,
                slot,
            });
        }
    }

    impl ShardHeap {
        fn pop_before(&mut self, target_s: f64) -> Option<(f64, usize, Option<FramePayload>)> {
            let top = *self.heap.peek()?;
            if top.time_s >= target_s {
                return None;
            }
            self.heap.pop();
            let frame = (top.slot != ARRIVAL_SLOT).then(|| {
                self.free.push(top.slot);
                self.slab[top.slot as usize]
            });
            Some((top.time_s, top.local as usize, frame))
        }
    }

    impl ShardSim<ShardHeap> {
        /// The pre-node-major `run_until`: one shard-wide event order.
        pub(super) fn run_until(&mut self, target_s: f64) {
            while let Some((time_s, local, frame)) = self.queue.pop_before(target_s) {
                self.dispatch(time_s, local, frame);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // tests fail loudly by design

    use super::oracle::ShardHeap;
    use super::*;
    use crate::testutil::tiny_instance;
    use proptest::prelude::*;
    use xpro_core::generator::{Engine, XProGenerator};
    use xpro_core::partition::Partition;
    use xpro_core::profile::segment_profile;

    /// A frame payload tagged by `id` (carried in `arrival_s`).
    fn tagged(id: u32) -> Option<FramePayload> {
        Some(FramePayload {
            arrival_s: f64::from(id),
            frame: id,
            attempt: 0,
            epoch: 0,
        })
    }

    /// Pops the node's events before `target_s`, as `(time, payload)`.
    fn drain(q: &mut NodeQueues, local: usize, target_s: f64) -> Vec<(f64, Option<FramePayload>)> {
        std::iter::from_fn(|| q.pop_before(local, target_s)).collect()
    }

    #[test]
    fn node_queue_pops_each_node_in_time_nseq_order() {
        let mut q = NodeQueues::for_nodes(3);
        q.push(1, 2.0, 1, None);
        q.push(1, 1.0, 4, tagged(4));
        q.push(1, 1.0, 2, tagged(2));
        q.push(1, 0.5, 3, tagged(3));
        q.push(0, 9.0, 5, tagged(5));
        q.push(1, 1.0, 3, None);
        assert_eq!(
            drain(&mut q, 1, f64::INFINITY),
            vec![
                (0.5, tagged(3)),
                (1.0, tagged(2)),
                (1.0, None),
                (1.0, tagged(4)),
                (2.0, None),
            ],
            "time first, per-node sequence on ties; arrivals and frames interleave"
        );
        assert!(
            drain(&mut q, 2, f64::INFINITY).is_empty(),
            "node 2 is empty"
        );
        assert_eq!(drain(&mut q, 0, f64::INFINITY), vec![(9.0, tagged(5))]);
    }

    #[test]
    fn node_queue_parks_at_the_barrier() {
        let mut q = NodeQueues::for_nodes(2);
        q.push(0, 1.0, 1, None);
        q.push(0, 2.0, 2, tagged(7));
        q.push(1, 0.5, 1, None);
        assert!(q.pop_before(0, 1.0).is_none(), "strictly-before semantics");
        assert_eq!(q.pop_before(0, 1.5), Some((1.0, None)));
        assert!(q.pop_before(0, 1.5).is_none(), "parked behind the barrier");
        // A parked node does not hold back another node's earlier event.
        assert_eq!(q.pop_before(1, 1.5), Some((0.5, None)));
        // An event pushed while parked still pops in order after it.
        q.push(0, 1.75, 3, None);
        assert_eq!(
            drain(&mut q, 0, f64::INFINITY),
            vec![(1.75, None), (2.0, tagged(7))]
        );
    }

    #[test]
    fn slab_recycles_slots_within_and_across_nodes() {
        let mut q = NodeQueues::for_nodes(4);
        for round in 0..10u32 {
            let local = (round % 4) as usize;
            q.push(local, f64::from(round), round + 1, tagged(round));
            assert_eq!(
                q.pop_before(local, f64::INFINITY),
                Some((f64::from(round), tagged(round)))
            );
        }
        assert_eq!(q.slab.len(), 1, "one in-flight event needs one slot");
        // The slab grows to the peak of simultaneously pending events and
        // no further.
        for local in 0..4 {
            q.push(local, 1.0, 1, None);
            q.push(local, 2.0, 2, tagged(2));
        }
        assert_eq!(q.slab.len(), 8);
        for local in 0..4 {
            assert_eq!(drain(&mut q, local, f64::INFINITY).len(), 2);
        }
        for local in 0..4 {
            q.push(local, 3.0, 3, None);
        }
        assert_eq!(q.slab.len(), 8, "freed slots are reused");
        assert_eq!(q.free.len(), 4);
    }

    /// One queue operation of the randomized model check.
    #[derive(Clone, Debug)]
    enum Op {
        Push { local: usize, time: u8 },
        Pop { local: usize, target: u8 },
    }

    fn op() -> impl Strategy<Value = Op> {
        (any::<bool>(), 0usize..3, 0u8..8).prop_map(|(push, local, v)| {
            if push {
                Op::Push { local, time: v % 6 }
            } else {
                Op::Pop { local, target: v }
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Against a sorted-vector model: every pop returns the node's
        /// smallest pending `(time, nseq)` strictly before the target, or
        /// nothing when there is none.
        #[test]
        fn node_queue_matches_a_sorted_model(ops in prop::collection::vec(op(), 0..60)) {
            let mut q = NodeQueues::for_nodes(3);
            let mut model: Vec<Vec<(u8, u32)>> = vec![Vec::new(); 3];
            let mut nseq = [0u32; 3];
            for op in ops {
                match op {
                    Op::Push { local, time } => {
                        nseq[local] += 1;
                        q.push(local, f64::from(time), nseq[local], tagged(nseq[local]));
                        model[local].push((time, nseq[local]));
                        model[local].sort_unstable();
                    }
                    Op::Pop { local, target } => {
                        let want = model[local]
                            .first()
                            .filter(|&&(t, _)| t < target)
                            .copied();
                        if want.is_some() {
                            model[local].remove(0);
                        }
                        let got = q.pop_before(local, f64::from(target));
                        prop_assert_eq!(
                            got,
                            want.map(|(t, n)| (f64::from(t), tagged(n)))
                        );
                    }
                }
            }
            let pending: usize = model.iter().map(Vec::len).sum();
            prop_assert_eq!(q.slab.len() - q.free.len(), pending);
        }
    }

    /// Everything a round leaves behind that the executor reads: per-node
    /// state, radio state, and the sorted job and observation runs (which
    /// it drains).
    type RoundState = (
        Vec<NodeCore>,
        Vec<(u64, u64, u64, u64)>,
        Vec<(u64, u32, u64, u64, u32)>,
        Vec<Obs>,
    );

    fn take_round<Q: EventQueue>(sh: &mut ShardSim<Q>) -> RoundState {
        let links = sh
            .links
            .iter()
            .map(|l| {
                (
                    l.busy_s().to_bits(),
                    l.free_at_s().to_bits(),
                    l.attempts(),
                    l.drops(),
                )
            })
            .collect();
        let mut jobs = std::mem::take(&mut sh.jobs);
        jobs.sort_unstable();
        let jobs = jobs
            .iter()
            .map(|j| {
                (
                    j.ready_s.to_bits(),
                    j.node,
                    j.seq,
                    j.arrival_s.to_bits(),
                    j.epoch,
                )
            })
            .collect();
        let mut obs = std::mem::take(&mut sh.obs);
        obs.sort_by(|a, b| {
            a.time_s
                .total_cmp(&b.time_s)
                .then(a.node.cmp(&b.node))
                .then(a.idx.cmp(&b.idx))
        });
        (sh.cores.clone(), links, jobs, obs)
    }

    /// A policy broadcast at a barrier, applied to both shards alike.
    #[derive(Clone, Debug)]
    enum Broadcast {
        Nothing,
        Plan(usize),
        Shed(Option<u64>),
        NodePolicy {
            pick: usize,
            degraded: bool,
            shed: Option<u64>,
        },
    }

    fn broadcast() -> impl Strategy<Value = Broadcast> {
        (0u8..4, 0usize..8, any::<bool>(), 0u64..4).prop_map(|(kind, pick, degraded, k)| {
            // Moduli 0 and 1 stand for "no shedding".
            let shed = (k >= 2).then_some(k);
            match kind {
                0 => Broadcast::Nothing,
                1 => Broadcast::Plan(pick % 3),
                2 => Broadcast::Shed(shed),
                _ => Broadcast::NodePolicy {
                    pick,
                    degraded,
                    shed,
                },
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Node-major processing against the shard-wide heap, under the
        /// full fault stack (bursts, crashes, battery depletion), plan
        /// switches and fleet-wide and per-node degrade/shed policies,
        /// across random barrier sequences: after every round both agree
        /// on every node's state, radio, jobs and observations.
        #[test]
        fn node_major_rounds_match_the_shard_wide_heap(
            seed in 0u64..10_000,
            first in 0u32..3,
            count in 1u32..6,
            stagger in any::<bool>(),
            drop in 0.0f64..0.4,
            bursty in any::<bool>(),
            crashy in any::<bool>(),
            battery in any::<bool>(),
            rounds in prop::collection::vec((1u32..12, broadcast()), 0..12),
        ) {
            let inst = tiny_instance(seed % 5);
            let generator = XProGenerator::new(&inst);
            let plans: Vec<Arc<SegmentProfile>> = [
                generator.partition_for(Engine::CrossEnd).unwrap(),
                Partition::all_sensor(inst.num_cells()),
                generator.trivial_cut(),
            ]
            .iter()
            .map(|p| Arc::new(segment_profile(&inst, p)))
            .collect();
            let mut b = RuntimeConfig::builder()
                .nodes((first + count + 1) as usize)
                .duration_s(1.5)
                .drop_rate(drop)
                .stagger(stagger)
                .max_retries(5)
                .adaptive(true)
                .seed(seed);
            if bursty {
                b = b
                    .burst_bad_rate(0.85)
                    .burst_p_enter(0.2)
                    .burst_p_exit(0.3)
                    .burst_slot_s(0.1);
            }
            if crashy {
                b = b.mtbf_s(0.6).mttr_s(0.2).reboot_warmup_s(0.05);
            }
            if battery {
                b = b.battery_budget_pj(2e7);
            }
            let cfg = b.build().unwrap();
            let period_s = inst.segment_len() as f64 / inst.config().sampling_hz;
            let mut fast: ShardSim =
                ShardSim::new(first, count, &cfg, period_s, Arc::clone(&plans[0]));
            let mut heap: ShardSim<ShardHeap> =
                ShardSim::new(first, count, &cfg, period_s, Arc::clone(&plans[0]));
            fast.install_fallback(Arc::clone(&plans[1]));
            heap.install_fallback(Arc::clone(&plans[1]));

            let mut target = 0.0;
            let mut rounds = rounds.into_iter();
            loop {
                let next = rounds.next();
                target = match &next {
                    Some((gap, _)) => target + period_s * f64::from(*gap) / 4.0,
                    None => f64::INFINITY,
                };
                fast.run_until(target);
                heap.run_until(target);
                prop_assert_eq!(take_round(&mut fast), take_round(&mut heap),
                    "diverged in the round ending at {}", target);
                let Some((_, cast)) = next else { break };
                apply(&mut fast, &cast, first, count, &plans);
                apply(&mut heap, &cast, first, count, &plans);
            }
        }
    }

    /// Applies one [`Broadcast`] to a shard, whatever its queue.
    fn apply<Q: EventQueue>(
        sh: &mut ShardSim<Q>,
        cast: &Broadcast,
        first: u32,
        count: u32,
        plans: &[Arc<SegmentProfile>],
    ) {
        match *cast {
            Broadcast::Nothing => {}
            Broadcast::Plan(i) => sh.install_plan(Arc::clone(&plans[i])),
            Broadcast::Shed(shed) => sh.set_shed_every(shed),
            Broadcast::NodePolicy {
                pick,
                degraded,
                shed,
            } => sh.set_node_policy(first + pick as u32 % count, degraded, shed),
        }
    }

    #[test]
    fn depletion_latches_once_budget_is_crossed() {
        let mut core = NodeCore::default();
        assert!(!core.deplete(0.0), "zero budget disables the model");
        core.compute_pj = 5.0;
        assert!(!core.deplete(10.0));
        core.wireless_pj = 6.0;
        assert!(core.deplete(10.0));
        core.compute_pj = 0.0;
        core.wireless_pj = 0.0;
        assert!(core.deplete(10.0), "depletion is permanent");
    }
}
