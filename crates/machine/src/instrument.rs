//! Machine-level metrics wiring.
//!
//! [`MachineMetrics`] lays a [`MetricsRegistry`] over one machine: a
//! busy/idle gauge pair and a ready-queue depth gauge per node, an
//! occupancy gauge per directed link, and an MPL (jobs executing) gauge per
//! partition. The machine's hook sites call the setters; because busy and
//! idle are always set as exact complements of a 0/1 signal, each node's
//! `busy + idle` integral telescopes to the run span *exactly* (integer
//! nanosecond arithmetic below 2^53 — see `parsched_obs::metrics`).
//!
//! Like every observability component, this struct only listens: updating a
//! gauge never schedules events or perturbs the simulation.

use crate::wiring::SystemNet;
use parsched_des::SimTime;
use parsched_obs::{GaugeId, MetricsRegistry};

/// Change points kept per gauge for exporters (Chrome-trace counter
/// tracks); at one update per simulated event this covers any paper-scale
/// run, and the registry counts drops beyond it.
const SERIES_CAP: usize = 250_000;

/// Per-machine gauge handles plus the backing registry.
#[derive(Debug)]
pub struct MachineMetrics {
    /// The backing registry (public for reporting/export).
    pub registry: MetricsRegistry,
    cpu_busy: Vec<GaugeId>,
    cpu_idle: Vec<GaugeId>,
    ready_depth: Vec<GaugeId>,
    link_busy: Vec<GaugeId>,
    partition_mpl: Vec<GaugeId>,
    timers_pending: GaugeId,
    alive_capacity: GaugeId,
    in_system: GaugeId,
    vc_occupancy: GaugeId,
    credit_stalls: GaugeId,
}

impl MachineMetrics {
    /// Register one gauge set for every node, link and partition of `net`.
    pub fn new(net: &SystemNet, t0: SimTime) -> MachineMetrics {
        let mut registry = MetricsRegistry::new(t0).with_series(SERIES_CAP);
        let nodes = net.nodes();
        let cpu_busy = (0..nodes)
            .map(|n| registry.gauge(format!("node{n}.cpu_busy"), 0.0))
            .collect();
        let cpu_idle = (0..nodes)
            .map(|n| registry.gauge(format!("node{n}.cpu_idle"), 1.0))
            .collect();
        let ready_depth = (0..nodes)
            .map(|n| registry.gauge(format!("node{n}.ready_depth"), 0.0))
            .collect();
        let link_busy = (0..net.channel_count())
            .map(|c| registry.gauge(format!("link{}.busy", net.channel(c).label()), 0.0))
            .collect();
        let partition_mpl = (0..net.partitions())
            .map(|p| registry.gauge(format!("P{p}.mpl"), 0.0))
            .collect();
        let timers_pending = registry.gauge("engine.timers_pending".to_string(), 0.0);
        let alive_capacity = registry.gauge("machine.alive_capacity".to_string(), 1.0);
        let in_system = registry.gauge("machine.in_system".to_string(), 0.0);
        let vc_occupancy = registry.gauge("machine.vc_occupancy".to_string(), 0.0);
        let credit_stalls = registry.gauge("machine.credit_stalls".to_string(), 0.0);
        MachineMetrics {
            registry,
            cpu_busy,
            cpu_idle,
            ready_depth,
            link_busy,
            partition_mpl,
            timers_pending,
            alive_capacity,
            in_system,
            vc_occupancy,
            credit_stalls,
        }
    }

    /// Record a node's CPU busy signal (0.0 or 1.0); idle is kept as the
    /// exact complement.
    #[inline]
    pub fn set_cpu_busy(&mut self, node: u32, now: SimTime, busy: f64) {
        self.registry.set(self.cpu_busy[node as usize], now, busy);
        self.registry
            .set(self.cpu_idle[node as usize], now, 1.0 - busy);
    }

    /// Record a node's low-priority ready-queue depth.
    #[inline]
    pub fn set_ready_depth(&mut self, node: u32, now: SimTime, depth: usize) {
        self.registry
            .set(self.ready_depth[node as usize], now, depth as f64);
    }

    /// Record a link's occupancy signal (0.0 or 1.0).
    #[inline]
    pub fn set_link_busy(&mut self, chan: u32, now: SimTime, busy: f64) {
        self.registry.set(self.link_busy[chan as usize], now, busy);
    }

    /// Record the engine's pending cancellable timers (its
    /// `timer_count`), sampled at dispatch points.
    #[inline]
    pub fn set_timers_pending(&mut self, now: SimTime, timers: usize) {
        self.registry.set(self.timers_pending, now, timers as f64);
    }

    /// Record a partition's multiprogramming level (jobs executing).
    #[inline]
    pub fn set_partition_mpl(&mut self, part: usize, now: SimTime, mpl: f64) {
        self.registry.set(self.partition_mpl[part], now, mpl);
    }

    /// Record the fraction of nodes whose CPUs are still alive (1.0 on a
    /// fault-free run; steps down at each declared crash). The
    /// time-weighted mean of this gauge is the run's degraded-capacity
    /// share.
    #[inline]
    pub fn set_alive_capacity(&mut self, now: SimTime, frac: f64) {
        self.registry.set(self.alive_capacity, now, frac);
    }

    /// Record the open-system population (jobs arrived but not yet
    /// departed). Stays 0 on closed-batch runs, where everything is in the
    /// system from t = 0; the time-weighted mean of this gauge on an open
    /// run is Little's-law `N`.
    #[inline]
    pub fn set_in_system(&mut self, now: SimTime, jobs: u32) {
        self.registry.set(self.in_system, now, jobs as f64);
    }

    /// Record the machine-wide count of held virtual channels (wormhole
    /// switching only; stays 0 otherwise). The time-weighted mean is the
    /// run's average VC occupancy.
    #[inline]
    pub fn set_vc_occupancy(&mut self, now: SimTime, held: usize) {
        self.registry.set(self.vc_occupancy, now, held as f64);
    }

    /// Record the cumulative credit-stall count (worms parked purely on an
    /// exhausted credit window; wormhole switching only). Monotone
    /// step-counter series, not a 0/1 signal.
    #[inline]
    pub fn set_credit_stalls(&mut self, now: SimTime, stalls: u64) {
        self.registry.set(self.credit_stalls, now, stalls as f64);
    }

    /// Gauge handle for a node's busy signal.
    pub fn cpu_busy_id(&self, node: u32) -> GaugeId {
        self.cpu_busy[node as usize]
    }

    /// Gauge handle for a node's idle signal.
    pub fn cpu_idle_id(&self, node: u32) -> GaugeId {
        self.cpu_idle[node as usize]
    }

    /// Gauge handle for a node's ready-queue depth.
    pub fn ready_depth_id(&self, node: u32) -> GaugeId {
        self.ready_depth[node as usize]
    }

    /// Gauge handle for a partition's MPL.
    pub fn partition_mpl_id(&self, part: usize) -> GaugeId {
        self.partition_mpl[part]
    }

    /// Number of partition MPL gauges.
    pub fn partition_count(&self) -> usize {
        self.partition_mpl.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_topology::build;

    #[test]
    fn registers_gauges_for_every_resource() {
        let net = SystemNet::single(&build::ring(4).unwrap());
        let m = MachineMetrics::new(&net, SimTime::ZERO);
        let names: Vec<&str> = m.registry.gauges().map(|(n, _)| n).collect();
        assert!(names.contains(&"node0.cpu_busy"));
        assert!(names.contains(&"node3.cpu_idle"));
        assert!(names.contains(&"node2.ready_depth"));
        assert!(names.contains(&"link0->1.busy"));
        assert!(names.contains(&"P0.mpl"));
        assert!(names.contains(&"engine.timers_pending"));
        assert!(names.contains(&"machine.alive_capacity"));
        assert!(names.contains(&"machine.in_system"));
        assert!(names.contains(&"machine.vc_occupancy"));
        assert!(names.contains(&"machine.credit_stalls"));
        assert_eq!(names.len(), 4 * 3 + 8 + 1 + 5);
    }

    #[test]
    fn busy_idle_complement_is_exact() {
        let net = SystemNet::single(&build::linear(1).unwrap());
        let mut m = MachineMetrics::new(&net, SimTime::ZERO);
        m.set_cpu_busy(0, SimTime(7), 1.0);
        m.set_cpu_busy(0, SimTime(19), 0.0);
        m.set_cpu_busy(0, SimTime(20), 1.0);
        m.registry.finish(SimTime(100));
        let busy = m.registry.integral_ns(m.cpu_busy_id(0));
        let idle = m.registry.integral_ns(m.cpu_idle_id(0));
        assert_eq!(busy + idle, 100.0);
        assert_eq!(busy, 12.0 + 80.0);
    }
}
