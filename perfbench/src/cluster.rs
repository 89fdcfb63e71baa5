//! The two cluster workloads: `socket-read-zipf` (TCP loopback) and
//! `mem-write-spread` (in-memory mailboxes), driven open loop through the
//! pipelined client.

use std::collections::{BTreeMap, HashSet};
use std::time::{Duration as StdDuration, Instant};

use dataflasks::core::GatewayError;
use dataflasks::prelude::{
    AsyncCluster, AsyncClusterConfig, ClusterSpec, Completion, DataFlasksNode, DataStore,
    DefaultStore, Duration, Key, MessageKind, NodeConfig, NodeId, NodeStats, PipelinedClient,
    SocketCluster, SocketClusterConfig, Ticket, TicketOutcome, TimerKind, Value, Version,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::driver::{
    generate, run_phase, ContactPlan, KeyState, Mix, PhaseParams, PhaseResult, Tally,
};
use crate::procfs::{self, Group, Roles, SchedStat, ThreadSample};
use crate::replay;
use crate::report::Report;
use crate::stats::{median, Samples};
use crate::trace::{span_cost_ns, Tracer};
use crate::values::{keys, value_for};

/// Which runtime carries the frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `SocketCluster` over TCP loopback.
    Socket,
    /// `AsyncCluster` with in-memory mailboxes.
    Mem,
}

/// A cluster workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    name: &'static str,
    backend: Backend,
    nodes: usize,
    slices: u32,
    records: usize,
    value_len: usize,
    read_fraction: f64,
    zipf_theta: Option<f64>,
    /// Offered rate of the fixed-rate phase, ops/s.
    fixed_rate: f64,
    /// Offered rate of the overload phase, ops/s.
    overload_rate: f64,
}

/// Cluster instances set up and measured per run.
const INSTANCES: usize = 5;
/// Seed of the cluster shape (node capacities, hence slice placement).
const CLUSTER_SEED: u64 = 0x0050_C4E7;
/// Gossip warm-up between start and preload (excluded from `setup_s`).
const WARMUP: StdDuration = StdDuration::from_millis(2_300);
/// Share of each instance's slice of `--seconds` spent in the fixed-rate
/// phase; the overload phase gets the rest.
const FIXED_SHARE: f64 = 0.6;
const INFLIGHT_CAP: usize = 1_024;
const OP_TIMEOUT: Duration = Duration::from_secs(2);
const AE_PERIOD_S: u64 = 3;

/// 220 nodes in 4 slices over TCP, 200 records of 128 B, 95% Zipfian
/// reads; 4k ops/s fixed, 32k ops/s overload.
#[must_use]
pub fn socket_read_zipf() -> Shape {
    Shape {
        name: "socket-read-zipf",
        backend: Backend::Socket,
        nodes: 220,
        slices: 4,
        records: 200,
        value_len: 128,
        read_fraction: 0.95,
        zipf_theta: Some(0.99),
        fixed_rate: 4_000.0,
        overload_rate: 32_000.0,
    }
}

/// 220 nodes in 8 slices in memory, 20k records of 1 KiB, 50% uniform
/// writes; 3k ops/s fixed, 32k ops/s overload.
#[must_use]
pub fn mem_write_spread() -> Shape {
    Shape {
        name: "mem-write-spread",
        backend: Backend::Mem,
        nodes: 220,
        slices: 8,
        records: 20_000,
        value_len: 1_024,
        read_fraction: 0.5,
        zipf_theta: None,
        fixed_rate: 3_000.0,
        overload_rate: 32_000.0,
    }
}

/// A running cluster of either backend.
enum Cluster {
    Socket(SocketCluster),
    Mem(AsyncCluster),
}

/// Backend counters, read through the clusters' public getters.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    routed: u64,
    high_water: u64,
    sheds: u64,
    saturations: u64,
    arena_fresh: u64,
    dials: u64,
    wire_rejects: u64,
    stale_events: u64,
}

impl Cluster {
    fn start(shape: &Shape, spec: &ClusterSpec) -> Self {
        match shape.backend {
            Backend::Socket => Self::Socket(SocketCluster::start_spec_with(
                spec,
                SocketClusterConfig {
                    workers: 1,
                    io_threads: 1,
                    ..SocketClusterConfig::default()
                },
            )),
            Backend::Mem => Self::Mem(AsyncCluster::start_spec_with(
                spec,
                AsyncClusterConfig {
                    workers: 1,
                    ..AsyncClusterConfig::default()
                },
            )),
        }
    }

    fn counters(&self) -> Counters {
        match self {
            Self::Socket(c) => Counters {
                routed: c.completions_routed(),
                high_water: c.inflight_high_water(),
                sheds: c.openloop_sheds(),
                saturations: c.saturation_events(),
                arena_fresh: c.arena_fresh_buffers(),
                dials: c.dial_count(),
                wire_rejects: c.wire_reject_count(),
                stale_events: c.reactor_stale_event_count(),
            },
            Self::Mem(c) => Counters {
                routed: c.completions_routed(),
                high_water: c.inflight_high_water(),
                sheds: c.openloop_sheds(),
                saturations: c.saturation_events(),
                ..Counters::default()
            },
        }
    }

    fn shutdown(self) -> Vec<DataFlasksNode<DefaultStore>> {
        match self {
            Self::Socket(c) => c.shutdown(),
            Self::Mem(c) => c.shutdown(),
        }
    }
}

impl PipelinedClient for Cluster {
    fn submit_put(
        &self,
        contact: Option<NodeId>,
        key: Key,
        version: Version,
        value: Value,
        timeout: Duration,
    ) -> Result<Ticket, GatewayError> {
        match self {
            Self::Socket(c) => c.submit_put(contact, key, version, value, timeout),
            Self::Mem(c) => c.submit_put(contact, key, version, value, timeout),
        }
    }

    fn submit_get(
        &self,
        contact: Option<NodeId>,
        key: Key,
        version: Option<Version>,
        timeout: Duration,
    ) -> Result<Ticket, GatewayError> {
        match self {
            Self::Socket(c) => c.submit_get(contact, key, version, timeout),
            Self::Mem(c) => c.submit_get(contact, key, version, timeout),
        }
    }

    fn await_ticket(
        &self,
        ticket: Ticket,
        timeout: Duration,
    ) -> Result<TicketOutcome, GatewayError> {
        match self {
            Self::Socket(c) => c.await_ticket(ticket, timeout),
            Self::Mem(c) => c.await_ticket(ticket, timeout),
        }
    }

    fn poll_completions(&self, out: &mut Vec<Completion>) {
        match self {
            Self::Socket(c) => c.poll_completions(out),
            Self::Mem(c) => c.poll_completions(out),
        }
    }

    fn inflight(&self) -> usize {
        match self {
            Self::Socket(c) => c.inflight(),
            Self::Mem(c) => c.inflight(),
        }
    }

    fn note_shed(&self) {
        match self {
            Self::Socket(c) => c.note_shed(),
            Self::Mem(c) => c.note_shed(),
        }
    }
}

/// Runs `f` inside a span when tracing.
fn spanned<T>(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    f: impl FnOnce(&mut Option<Tracer>) -> T,
) -> T {
    if let Some(t) = tracer.as_mut() {
        t.enter(name);
    }
    let out = f(tracer);
    if let Some(t) = tracer.as_mut() {
        t.exit();
    }
    out
}

/// Writes version 1 of every record, at most 64 in flight, and waits for
/// every acknowledgement.
///
/// # Panics
///
/// Panics if a preload write is not acknowledged: the measured phases
/// assume every record exists.
fn preload(
    cluster: &Cluster,
    state: &mut KeyState,
    contacts: &mut ContactPlan,
    seed: u64,
    clock: Instant,
    tracer: &mut Option<Tracer>,
) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
    let mut tickets: Vec<(Ticket, usize)> = Vec::with_capacity(state.keys.len());
    let mut acked: HashSet<Ticket> = HashSet::new();
    let mut out = Vec::new();
    let absorb =
        |out: &mut Vec<Completion>, acked: &mut HashSet<Ticket>, contacts: &mut ContactPlan| {
            for completion in out.drain(..) {
                let TicketOutcome::Acked(reply) = &completion.outcome else {
                    panic!("preload write not acknowledged: {:?}", completion.outcome);
                };
                contacts.learn(reply.responder, reply.responder_slice.map(|s| s.index()));
                acked.insert(completion.ticket);
            }
        };
    for record in 0..state.keys.len() {
        while cluster.inflight() >= 64 {
            cluster.poll_completions(&mut out);
            if out.is_empty() {
                std::thread::yield_now();
            }
            absorb(&mut out, &mut acked, contacts);
        }
        let key = state.keys[record];
        let version = Version::new(1);
        let value = value_for(key, version, state.value_len);
        let ticket = cluster
            .submit_put(
                Some(contacts.contact_for(key, &mut rng)),
                key,
                version,
                value,
                Duration::from_secs(10),
            )
            .expect("preload submit");
        tickets.push((ticket, record));
    }
    for (ticket, record) in tickets.iter().copied() {
        if !acked.contains(&ticket) {
            let before = tracer.as_ref().map(Tracer::now_ns);
            let outcome = cluster
                .await_ticket(ticket, Duration::from_secs(10))
                .expect("preload acknowledgement");
            let TicketOutcome::Acked(reply) = outcome else {
                panic!("preload write not acknowledged: {outcome:?}");
            };
            contacts.learn(reply.responder, reply.responder_slice.map(|s| s.index()));
            if let (Some(t), Some(before)) = (tracer.as_mut(), before) {
                let after = t.now_ns();
                t.record(
                    "gateway.await_ticket",
                    Some(ticket.request_id()),
                    before,
                    after,
                );
            }
        }
        state.preloaded(record, 1, clock.elapsed().as_micros() as u64);
    }
    tickets.len() as u64
}

/// CPU and thread readings at a phase boundary.
struct Mark {
    at: Instant,
    cpu_ns: Option<u64>,
    threads: Option<ThreadSample>,
    counters: Counters,
    host: Option<(u64, u64)>,
}

fn mark(cluster: Option<&Cluster>) -> Mark {
    Mark {
        at: Instant::now(),
        cpu_ns: procfs::process_cpu_ns(),
        threads: procfs::sample_threads(),
        counters: cluster.map_or_else(Counters::default, Cluster::counters),
        host: procfs::host_ticks(),
    }
}

/// What one cluster instance measured.
struct Instance {
    setup_s: f64,
    fixed: PhaseResult,
    over: PhaseResult,
    /// Client operations over the instance's life, preload included.
    client_ops: f64,
    stats: NodeStats,
    /// Boundaries: before start, warm-up start and end, fixed start,
    /// overload start, overload end.
    marks: [Mark; 6],
    end_counters: Counters,
    lifetime_s: f64,
    roles: Roles,
    /// The nodes after shutdown (kept for the layer replay only).
    nodes: Vec<DataFlasksNode<DefaultStore>>,
}

impl Instance {
    fn fixed_ops_done(&self) -> f64 {
        self.fixed.tally.ok().max(1) as f64
    }

    fn cpu_ms_per_kop(&self) -> Option<f64> {
        cpu_between(&self.marks[3], &self.marks[4])
            .map(|ns| ns / 1e6 / (self.fixed_ops_done() / 1_000.0))
    }

    fn goodput(&self) -> f64 {
        self.over.tally.ok_in_window as f64 / (self.over.span_us as f64 / 1e6).max(1e-9)
    }

    fn request_msgs_per_op(&self) -> f64 {
        (self.stats.sent(MessageKind::Request) + self.stats.sent(MessageKind::Reply)) as f64
            / self.client_ops
    }
}

/// The workload's configuration and inputs, shared by its instances.
struct Setup<'a> {
    shape: &'a Shape,
    spec: ClusterSpec,
    contacts: ContactPlan,
    seed: u64,
    fixed_s: f64,
    overload_s: f64,
    clock: Instant,
}

/// Starts a cluster, lets gossip flow, preloads it (the timed set-up),
/// runs the fixed-rate and overload phases and shuts it down.
fn run_instance(
    setup: &Setup<'_>,
    index: u64,
    state: &mut KeyState,
    versions: &mut [u64],
    tracer: &mut Option<Tracer>,
) -> Instance {
    let shape = setup.shape;
    let seed = setup.seed ^ (index << 40);
    let life = mark(None);
    let started = Instant::now();
    let cluster = spanned(tracer, "cluster.start", |_| {
        Cluster::start(shape, &setup.spec)
    });
    let start_s = started.elapsed().as_secs_f64();
    let mut roles = Roles::new(procfs::current_tid());
    if let Some(sample) = procfs::sample_threads() {
        // A mismatch leaves the socket roles to the (truncated) names.
        if shape.backend == Backend::Socket {
            roles.assign_socket_threads(&sample, 1, 1);
        }
    }
    let warm_from = mark(Some(&cluster));
    std::thread::sleep(WARMUP);
    let warm_to = mark(Some(&cluster));
    let loading = Instant::now();
    // Each instance starts from the bootstrap slices and learns from replies.
    let mut contacts = setup.contacts.clone();
    let preloaded = spanned(tracer, "cluster.preload", |t| {
        preload(&cluster, state, &mut contacts, seed, setup.clock, t)
    });
    let setup_s = start_s + loading.elapsed().as_secs_f64();

    let params = PhaseParams {
        inflight_cap: INFLIGHT_CAP,
        op_timeout: OP_TIMEOUT,
    };
    let mix = |rate: f64, seconds: f64| Mix {
        rate,
        seconds,
        read_fraction: shape.read_fraction,
        zipf_theta: shape.zipf_theta,
    };
    let fixed_ops = generate(&mix(shape.fixed_rate, setup.fixed_s), seed ^ 0x1, versions);
    let over_ops = generate(
        &mix(shape.overload_rate, setup.overload_s),
        seed ^ 0x2,
        versions,
    );
    let m0 = mark(Some(&cluster));
    let fixed = spanned(tracer, "phase.fixed", |t| {
        run_phase(
            &cluster,
            &fixed_ops,
            state,
            &mut contacts,
            seed ^ 0x11,
            params,
            setup.clock,
            t.as_mut(),
        )
    });
    let m1 = mark(Some(&cluster));
    let over = spanned(tracer, "phase.overload", |t| {
        run_phase(
            &cluster,
            &over_ops,
            state,
            &mut contacts,
            seed ^ 0x22,
            params,
            setup.clock,
            t.as_mut(),
        )
    });
    let m2 = mark(Some(&cluster));
    let end_counters = cluster.counters();
    let nodes = spanned(tracer, "cluster.shutdown", |_| cluster.shutdown());
    let lifetime_s = life.at.elapsed().as_secs_f64();
    let mut stats = NodeStats::new();
    for node in &nodes {
        stats.merge(node.stats());
    }
    Instance {
        setup_s,
        client_ops: (preloaded + fixed.tally.submitted + over.tally.submitted).max(1) as f64,
        fixed,
        over,
        stats,
        marks: [life, warm_from, warm_to, m0, m1, m2],
        end_counters,
        lifetime_s,
        roles,
        nodes,
    }
}

/// Runs the workload and fills the report. The run sets up [`INSTANCES`]
/// clusters one after another and measures each; every end-to-end metric
/// is the median over the instances (failure counts are pooled), and the
/// per-layer metrics come from the last instance.
#[allow(clippy::too_many_lines)]
pub fn run(shape: &Shape, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut config = NodeConfig::for_system_size(shape.nodes, shape.slices);
    config.pss.shuffle_period = Duration::from_secs(2);
    config.slicing.gossip_period = Duration::from_secs(4);
    config.replication.anti_entropy_period = Duration::from_secs(AE_PERIOD_S);
    // The cluster itself (node capacities, hence slice placement) is fixed;
    // the seed draws the workload: keys, schedule and contacts.
    let mut capacity_rng = StdRng::seed_from_u64(CLUSTER_SEED);
    let capacities: Vec<u64> = (0..shape.nodes)
        .map(|_| capacity_rng.gen_range(100..=10_000))
        .collect();
    let spec = ClusterSpec::new(config, capacities, CLUSTER_SEED);
    let plan_nodes = spec.build_nodes();
    let contacts = ContactPlan::new(
        plan_nodes[0].partition(),
        plan_nodes
            .iter()
            .map(|n| (n.id(), n.slice().map(|s| s.index()))),
    );
    drop(plan_nodes);
    let per_instance = seconds / INSTANCES as f64;
    let setup = Setup {
        shape,
        spec,
        contacts,
        seed,
        fixed_s: (per_instance * FIXED_SHARE).max(0.5),
        overload_s: (per_instance * (1.0 - FIXED_SHARE)).max(0.5),
        clock: Instant::now(),
    };
    let mut state = KeyState::new(keys(CLUSTER_SEED, shape.records), shape.value_len);
    let mut versions = vec![1u64; shape.records];
    let mut tracer = traced.then(|| Tracer::starting_at(setup.clock));
    let mut instances: Vec<Instance> = Vec::with_capacity(INSTANCES);
    for index in 0..INSTANCES as u64 {
        let mut instance = run_instance(&setup, index, &mut state, &mut versions, &mut tracer);
        if !traced || index + 1 < INSTANCES as u64 {
            // Only the last instance's nodes feed the layer replay.
            instance.nodes = Vec::new();
        }
        instances.push(instance);
    }

    // ---- end-to-end: medians over instances, pooled failures ----
    let mut report = Report::default();
    let med = |f: &dyn Fn(&Instance) -> Option<f64>| -> Option<f64> {
        let values: Vec<f64> = instances.iter().filter_map(f).collect();
        (!values.is_empty()).then(|| median(&values))
    };
    let listed = |f: &dyn Fn(&Instance) -> f64| -> String {
        let values: Vec<String> = instances.iter().map(|i| format!("{:.4}", f(i))).collect();
        values.join(", ")
    };
    let mut pooled = Tally::default();
    for instance in &instances {
        let t = &instance.fixed.tally;
        pooled.scheduled += t.scheduled;
        pooled.acked_reads += t.acked_reads;
        pooled.acked_hits += t.acked_hits;
        pooled.shed += t.shed;
        pooled.submit_errors += t.submit_errors;
        pooled.timeouts += t.timeouts;
        pooled.misses_acked += t.misses_acked;
        pooled.wrong_values += t.wrong_values;
        report.wrong_values += t.wrong_values + instance.over.tally.wrong_values;
    }
    report.attempted = pooled.scheduled;
    report.failed = pooled.failed();
    let n = INSTANCES;
    report.set_noted(
        "setup_s",
        med(&|i| Some(i.setup_s)).unwrap_or(0.0),
        format!("median of {n} set-ups: {}", listed(&|i| i.setup_s)),
    );
    // Interference from the shared host only ever adds latency and removes
    // throughput, so the medians come from the least disturbed instance
    // (lowest median latency, highest goodput); the tails pool every
    // instance's samples and carry no bound.
    for (p50_metric, tail_metric, read) in [
        ("read_p50_us", "client.read_p99_us", true),
        ("write_p50_us", "client.write_p99_us", false),
    ] {
        let samples_of = |i: &Instance| {
            let t = &i.fixed.tally;
            Samples::new(
                if read {
                    t.read_us.clone()
                } else {
                    t.write_us.clone()
                },
                0.0,
            )
        };
        let medians: Vec<(f64, usize)> = instances
            .iter()
            .map(|i| {
                let s = samples_of(i);
                (s.percentile(50.0), s.len())
            })
            .collect();
        let best = medians.iter().map(|m| m.0).fold(f64::INFINITY, f64::min);
        let detail: Vec<String> = medians
            .iter()
            .map(|(v, c)| format!("{v:.0} (of {c})"))
            .collect();
        report.set_noted(
            p50_metric,
            best,
            format!("lowest instance median: {}", detail.join(", ")),
        );
        let pooled = Samples::new(
            instances
                .iter()
                .flat_map(|i| samples_of(i).into_sorted())
                .collect(),
            0.0,
        );
        let (_, tail, tail_p) = pooled.median_and_tail(99.0);
        report.set_noted(
            tail_metric,
            tail,
            format!("p{tail_p:.2} of {} pooled over instances", pooled.len()),
        );
    }
    report.set_noted(
        "goodput_ops_s",
        instances.iter().map(Instance::goodput).fold(0.0, f64::max),
        format!(
            "highest instance at {} ops/s offered: {}",
            shape.overload_rate,
            listed(&Instance::goodput)
        ),
    );
    report.set_noted(
        "ok_op_ratio",
        1.0 - pooled.failed_ratio(),
        format!(
            "failed_op_ratio {:.6} = {} / {}",
            pooled.failed_ratio(),
            pooled.failed(),
            pooled.scheduled
        ),
    );
    report.set_noted(
        "acked_read_hit_ratio",
        pooled.acked_read_hit_ratio(),
        format!("{} / {}", pooled.acked_hits, pooled.acked_reads),
    );
    report.set_opt("proc.cpu_ms_per_kop", med(&Instance::cpu_ms_per_kop));
    report.set_noted(
        "request_msgs_per_op",
        med(&|i| Some(i.request_msgs_per_op())).unwrap_or(0.0),
        format!(
            "median over instances: {}",
            listed(&Instance::request_msgs_per_op)
        ),
    );
    report.set_opt("peak_rss_mb", procfs::peak_rss_mb());
    for (index, instance) in instances.iter().enumerate() {
        if let Some(steal) = procfs::steal_share(instance.marks[3].host, instance.marks[4].host) {
            report.extra(
                format!("#{index} fixed: host CPU stolen"),
                format!("{:.2}%", steal * 100.0),
            );
        }
        phase_extras(
            &mut report,
            &format!("#{index} fixed"),
            &instance.fixed,
            shape.fixed_rate,
        );
        phase_extras(
            &mut report,
            &format!("#{index} overload"),
            &instance.over,
            shape.overload_rate,
        );
    }

    if !traced {
        return report;
    }
    let mut tracer = tracer.expect("traced run has a tracer");
    let last = instances.last_mut().expect("at least one instance");
    let [_, warm_from, warm_to, m0, m1, m2] = &last.marks;
    let fixed = &last.fixed;
    let over = &last.over;
    let stats = last.stats;
    let fixed_ops_done = last.fixed_ops_done();
    let client_ops = last.client_ops;
    let lifetime_s = last.lifetime_s;

    // ---- per-layer: driver and gateway ----
    let lag = Samples::new(fixed.tally.lag_us.clone(), 0.0);
    let (_, lag_tail, lag_p) = lag.median_and_tail(99.0);
    report.set_noted(
        "driver.lag_p99_us",
        lag_tail,
        format!("p{lag_p:.2} of {}", lag.len()),
    );
    let groups = thread_groups(&last.roles, m0, m1);
    let per_op_us = |group: Group, field: fn(&SchedStat) -> u64| {
        groups.as_ref().map(|g| {
            g.get(&group)
                .map_or(0.0, |s| field(s) as f64 / 1_000.0 / fixed_ops_done)
        })
    };
    report.set_opt(
        "driver.cpu_us_per_op",
        per_op_us(Group::Driver, |s| s.cpu_ns),
    );
    let submits = Samples::new(fixed.submit_ns.iter().map(|&ns| ns as f64).collect(), 0.0);
    let (submit_p50, submit_tail, submit_p) = submits.median_and_tail(99.0);
    report.set("gateway.submit_ns_p50", submit_p50);
    report.set_noted(
        "gateway.submit_ns_p99",
        submit_tail,
        format!("p{submit_p:.2} of {}", submits.len()),
    );
    report.set(
        "gateway.poll_ns_per_completion",
        fixed.poll_ns as f64 / fixed.completions.max(1) as f64,
    );
    report.set(
        "gateway.completions_routed_per_op",
        (m1.counters.routed - m0.counters.routed) as f64 / fixed.tally.submitted.max(1) as f64,
    );
    report.set(
        "gateway.inflight_high_water",
        last.end_counters.high_water as f64,
    );
    report.set("gateway.sheds", last.end_counters.sheds as f64);

    // ---- per-layer: runtime threads ----
    let cpu = |s: &SchedStat| s.cpu_ns;
    let wait = |s: &SchedStat| s.wait_ns;
    match shape.backend {
        Backend::Socket => {
            report.set_opt("net_env.io_cpu_us_per_op", per_op_us(Group::SockIo, cpu));
            report.set_opt(
                "net_env.io_runq_wait_us_per_op",
                per_op_us(Group::SockIo, wait),
            );
            report.set_opt(
                "net_env.worker_cpu_us_per_op",
                per_op_us(Group::SockWorker, cpu),
            );
            report.set_opt(
                "net_env.worker_runq_wait_us_per_op",
                per_op_us(Group::SockWorker, wait),
            );
            report.set_opt(
                "net_env.timer_cpu_us_per_op",
                per_op_us(Group::SockTimer, cpu),
            );
            report.set_opt(
                "net_env.timeslices_per_op",
                groups.as_ref().map(|g| {
                    [Group::SockIo, Group::SockWorker, Group::SockTimer]
                        .iter()
                        .filter_map(|k| g.get(k))
                        .map(|s| s.slices as f64)
                        .sum::<f64>()
                        / fixed_ops_done
                }),
            );
            report.set(
                "net_env.arena_fresh_per_kop",
                (m1.counters.arena_fresh - m0.counters.arena_fresh) as f64 * 1_000.0
                    / fixed_ops_done,
            );
            report.set("net_env.dials", last.end_counters.dials as f64);
            report.set(
                "net_env.wire_rejects",
                last.end_counters.wire_rejects as f64,
            );
            report.set("net_env.saturations", last.end_counters.saturations as f64);
            report.set(
                "net_env.reactor_stale_events",
                last.end_counters.stale_events as f64,
            );
        }
        Backend::Mem => {
            report.set_opt(
                "async_env.worker_cpu_us_per_op",
                per_op_us(Group::MemWorker, cpu),
            );
            report.set_opt(
                "async_env.worker_runq_wait_us_per_op",
                per_op_us(Group::MemWorker, wait),
            );
            report.set_opt(
                "async_env.timer_cpu_us_per_op",
                per_op_us(Group::MemTimer, cpu),
            );
            report.set(
                "async_env.saturations",
                last.end_counters.saturations as f64,
            );
        }
    }

    // ---- per-layer: node counters and store shape ----
    crate::node_metrics(
        &mut report,
        &stats,
        shape.nodes,
        lifetime_s,
        client_ops,
        AE_PERIOD_S as f64,
    );
    let objects: usize = last.nodes.iter().map(|n| n.store().len()).sum();
    let objects_per_node = objects as f64 / last.nodes.len().max(1) as f64;
    report.set("store.objects_per_node", objects_per_node);
    report.set(
        "store.replicas_per_key",
        objects as f64 / shape.records as f64,
    );

    // ---- layer replay ----
    let replay_start = tracer.now_ns();
    let wire = replay::wire(&mut last.nodes, &stats, &state.keys, shape.value_len);
    let store_cost = replay::store(
        &state.keys,
        objects_per_node.round() as usize,
        shape.value_len,
        config.effective_store_shards(),
    );
    let (cycle_ns, inbox_ns) = replay::sched(shape.nodes);
    let wheel_ns = replay::wheel(shape.nodes, false);
    let reassembly_ns = match shape.backend {
        Backend::Socket => replay::reassembly(&wire.frames),
        Backend::Mem => 0.0,
    };
    tracer.record("replay.layers", None, replay_start, tracer.now_ns());
    report.set("wire.encode_ns_per_msg", wire.encode_ns);
    report.set("wire.decode_ns_per_msg", wire.decode_ns);
    report.set("wire.bytes_per_msg", wire.bytes);
    report.set("store.put_ns", store_cost.put_ns);
    report.set("store.get_ns", store_cost.get_ns);
    report.set("store.range_digest_us", store_cost.range_digest_us);
    report.set("store.objects_newer_than_us", store_cost.newer_than_us);
    report.set("sched.ready_cycle_ns", cycle_ns);
    report.set("sched.inbox_push_drain_ns", inbox_ns);
    report.set("wheel.arm_fire_ns", wheel_ns);
    if shape.backend == Backend::Socket {
        report.set("net_env.reassembly_ns_per_kib", reassembly_ns);
    }

    // ---- reconciliation ----
    // Request-driven work scales with client operations; background work
    // (gossip, anti-entropy, timers) with time. Every message pays encode,
    // decode, a scheduler cycle and a mailbox push/drain, plus reassembly
    // on sockets.
    let msgs = |kinds: &[MessageKind]| kinds.iter().map(|&k| stats.sent(k) as f64).sum::<f64>();
    let per_msg_ns = wire.encode_ns
        + wire.decode_ns
        + cycle_ns
        + inbox_ns
        + reassembly_ns * wire.bytes / 1_024.0;
    let store_ns = (stats.puts_stored + stats.puts_ignored) as f64 * store_cost.put_ns
        + (stats.gets_hit + stats.gets_missed) as f64 * store_cost.get_ns;
    let gateway_ns_per_op =
        (fixed.submit_ns.iter().sum::<u64>() + fixed.poll_ns) as f64 / fixed_ops_done;
    let request_ns =
        msgs(&[MessageKind::Request]) * per_msg_ns + store_ns + gateway_ns_per_op * client_ops;
    let ae_rounds = shape.nodes as f64 * lifetime_s / AE_PERIOD_S as f64;
    let timer_fires: f64 = TimerKind::ALL
        .iter()
        .map(|k| shape.nodes as f64 * lifetime_s / k.period(&config).as_secs().max(1) as f64)
        .sum();
    let background_ns = msgs(&[
        MessageKind::Membership,
        MessageKind::Slicing,
        MessageKind::AntiEntropy,
    ]) * per_msg_ns
        + stats.objects_repaired as f64 * store_cost.put_ns
        + (ae_rounds - stats.ae_chunks_skipped as f64).max(0.0)
            * (store_cost.range_digest_us + store_cost.newer_than_us)
            * 1_000.0
        + timer_fires * wheel_ns;
    let windows = [
        ("warm-up", warm_from, warm_to, 0.0),
        ("fixed", m0, m1, fixed.tally.submitted as f64),
        ("overload", m1, m2, over.tally.submitted as f64),
    ];
    reconcile(
        &mut report,
        &windows,
        request_ns / client_ops,
        background_ns / lifetime_s.max(1e-9),
    );

    // ---- tracing overhead ----
    let spans_per_op = tracer
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("gateway.") || s.name == "client.op")
        .count() as f64
        / instances.iter().map(|i| i.client_ops).sum::<f64>();
    report.set("trace.spans_per_op", spans_per_op);
    report.set(
        "trace.overhead_us_per_op",
        spans_per_op * span_cost_ns() / 1_000.0,
    );
    crate::write_trace(&tracer, &mut report, &format!("{}-{seed}", shape.name));
    report
}

fn cpu_between(a: &Mark, b: &Mark) -> Option<f64> {
    Some(b.cpu_ns?.saturating_sub(a.cpu_ns?) as f64)
}

/// Per thread group, what the threads did between two marks.
fn thread_groups(roles: &Roles, a: &Mark, b: &Mark) -> Option<BTreeMap<Group, SchedStat>> {
    Some(roles.delta(a.threads.as_ref()?, b.threads.as_ref()?))
}

/// Process CPU of each window against the model `ops × per_op_ns +
/// seconds × per_s_ns`.
fn reconcile(
    report: &mut Report,
    windows: &[(&'static str, &Mark, &Mark, f64)],
    per_op_ns: f64,
    per_s_ns: f64,
) {
    let fitted: Vec<(&str, f64, f64)> = windows
        .iter()
        .filter_map(|(name, a, b, ops)| {
            let measured = cpu_between(a, b)?;
            let seconds = b.at.duration_since(a.at).as_secs_f64();
            Some((*name, measured, ops * per_op_ns + seconds * per_s_ns))
        })
        .collect();
    crate::set_reconciliation(report, &fitted);
}

fn phase_extras(report: &mut Report, name: &str, phase: &PhaseResult, rate: f64) {
    let t = &phase.tally;
    report.extra(
        format!("{name}: offered / scheduled / submitted"),
        format!("{rate} ops/s / {} / {}", t.scheduled, t.submitted),
    );
    report.extra(
        format!("{name}: acks / hits / misses(acked) / timeouts / shed / submit errors / wrong"),
        format!(
            "{} / {} / {} / {} / {} / {} / {}",
            t.acks, t.hits, t.misses_acked, t.timeouts, t.shed, t.submit_errors, t.wrong_values
        ),
    );
    report.extra(
        format!("{name}: wall s"),
        format!("{:.3}", phase.wall.as_secs_f64()),
    );
}
