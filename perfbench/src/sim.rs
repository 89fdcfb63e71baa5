//! `sim-churn-10k`: the paper's churn regime in the discrete-event
//! simulator. 10k nodes in 50 slices, global fanout 4; 1% of the nodes
//! crash and as many join over 20 s while 800 puts ride on the churn, and
//! a get of each key follows its put by 15 s. Latencies are virtual time.

use std::time::Instant;

use dataflasks::prelude::{
    DataStore, Duration, MessageKind, NodeConfig, NodeStats, OperationOutcome, SimConfig,
    Simulation, Version,
};

use crate::driver::{KeyState, OpKind, Outcome, ScheduledOp, Tally};
use crate::report::Report;
use crate::trace::{span_cost_ns, Tracer};
use crate::values::{keys, value_for};
use crate::{procfs, replay};

const NODES: usize = 10_000;
const SLICES: u32 = 50;
const OPS: usize = 800;
const VALUE_LEN: usize = 128;
const WARMUP_S: u64 = 60;
const CHURN_S: u64 = 20;
const READ_DELAY_S: u64 = 15;
const DRAIN_S: u64 = 25;

/// Wall time, CPU and simulator counters at a phase boundary.
#[derive(Clone, Copy)]
struct Mark {
    at: Instant,
    cpu_ns: Option<u64>,
    events: u64,
    timers: u64,
    delivered: u64,
}

fn mark(sim: &Simulation) -> Mark {
    Mark {
        at: Instant::now(),
        cpu_ns: procfs::process_cpu_ns(),
        events: sim.events_dispatched(),
        timers: sim.timer_fires(),
        delivered: sim.messages_delivered(),
    }
}

fn wall_s(a: &Mark, b: &Mark) -> f64 {
    b.at.duration_since(a.at).as_secs_f64()
}

fn cpu_ns(a: &Mark, b: &Mark) -> Option<f64> {
    Some(b.cpu_ns?.saturating_sub(a.cpu_ns?) as f64)
}

/// Runs the scenario and fills the report.
#[allow(clippy::too_many_lines)]
pub fn run(seed: u64, traced: bool) -> Report {
    let clock = Instant::now();
    let mut tracer = traced.then(|| Tracer::starting_at(clock));
    let mut report = Report::default();
    let mut config = NodeConfig::for_system_size(NODES, SLICES);
    config.dissemination.global_fanout = 4;
    let mut sim = Simulation::new(SimConfig {
        seed,
        client_timeout: Duration::from_secs(5),
        ..SimConfig::default()
    });

    // ---- set-up: spawn plus warm-up ----
    let m0 = mark(&sim);
    let spawn_start = tracer.as_ref().map(Tracer::now_ns);
    sim.spawn_cluster(NODES, config);
    if let (Some(t), Some(start)) = (tracer.as_mut(), spawn_start) {
        let end = t.now_ns();
        t.record("sim.spawn_cluster", None, start, end);
    }
    let phase =
        |sim: &mut Simulation, tracer: &mut Option<Tracer>, name: &'static str, seconds: u64| {
            let start = tracer.as_ref().map(Tracer::now_ns);
            sim.run_for(Duration::from_secs(seconds));
            if let (Some(t), Some(start)) = (tracer.as_mut(), start) {
                let end = t.now_ns();
                t.record(name, None, start, end);
            }
            mark(sim)
        };
    let m1 = phase(&mut sim, &mut tracer, "sim.run_for.warmup", WARMUP_S);

    // ---- the schedule ----
    let mut state = KeyState::new(keys(seed, OPS), VALUE_LEN);
    let churn = NODES / 100;
    let start = sim.now();
    sim.schedule_churn(start, start + Duration::from_secs(CHURN_S), churn, churn);
    let client = sim.add_client();
    let gap_ms = CHURN_S * 1_000 / OPS as u64;
    let put_due_ms = |i: usize| i as u64 * gap_ms;
    let get_due_ms = |i: usize| READ_DELAY_S * 1_000 + i as u64 * gap_ms;
    for (i, &key) in state.keys.iter().enumerate() {
        let version = Version::new(1);
        sim.schedule_put(
            start + Duration::from_millis(put_due_ms(i)),
            client,
            key,
            version,
            value_for(key, version, VALUE_LEN),
        );
        sim.schedule_get(
            start + Duration::from_millis(get_due_ms(i)),
            client,
            key,
            None,
        );
    }
    let m2 = phase(&mut sim, &mut tracer, "sim.run_for.churn_write", CHURN_S);
    let m3 = phase(&mut sim, &mut tracer, "sim.run_for.read_drain", DRAIN_S);

    // ---- check every completed operation against the schedule ----
    // Per key the put resolves (5 s timeout) before its get is issued
    // (15 s later), so a key's first completion is its put's.
    let check_start = tracer.as_ref().map(Tracer::now_ns);
    let index_of: std::collections::HashMap<_, _> = state
        .keys
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i))
        .collect();
    let mut seen = vec![0u8; OPS];
    let mut tally = Tally::default();
    let mut unexpected = 0u64;
    for op in sim.completed_operations() {
        let Some(&i) = index_of.get(&op.key) else {
            unexpected += 1;
            continue;
        };
        let is_put = seen[i] == 0;
        seen[i] += 1;
        let scheduled = ScheduledOp {
            due_us: if is_put { put_due_ms(i) } else { get_due_ms(i) } * 1_000,
            kind: if is_put { OpKind::Write } else { OpKind::Read },
            record: i as u32,
            version: u64::from(is_put),
        };
        let outcome = match (&op.outcome, is_put) {
            (OperationOutcome::PutAcked { .. }, true) => Outcome::Acked,
            (OperationOutcome::GetHit { object }, false) => Outcome::Hit(object.clone()),
            (OperationOutcome::GetMiss, false) => Outcome::Miss,
            (OperationOutcome::TimedOut, _) => Outcome::TimedOut,
            _ => {
                unexpected += 1;
                continue;
            }
        };
        if is_put {
            state.wrote(i, 1);
        }
        let due = scheduled.due_us;
        let acked_read = tally.schedule(&state, &scheduled, due);
        let done = due + op.latency.as_millis() * 1_000;
        tally.complete(
            &mut state,
            &scheduled,
            acked_read,
            &outcome,
            due,
            done,
            u64::MAX,
        );
    }
    // Operations the simulator never resolved.
    let resolved: u64 = seen.iter().map(|&n| u64::from(n)).sum();
    let unresolved = (2 * OPS as u64).saturating_sub(resolved);
    tally.scheduled += unresolved;
    tally.timeouts += unresolved;
    if let (Some(t), Some(start)) = (tracer.as_mut(), check_start) {
        let end = t.now_ns();
        t.record("bench.check_schedule", None, start, end);
    }
    // A resolution that matches nothing scheduled is a wrong output.
    tally.wrong_values += unexpected;

    // ---- end-to-end ----
    let ops = (2 * OPS) as f64;
    report.attempted = tally.scheduled;
    report.failed = tally.failed();
    report.wrong_values = tally.wrong_values;
    let setup_s = wall_s(&m0, &m1);
    report.set_noted(
        "setup_s",
        setup_s,
        "spawn + 60 s virtual warm-up, one per run".to_string(),
    );
    crate::latency_metrics(
        &mut report,
        tally.read_us.clone(),
        tally.write_us.clone(),
        1_000.0,
    );
    for name in [
        "read_p50_us",
        "client.read_p99_us",
        "write_p50_us",
        "client.write_p99_us",
    ] {
        if let Some(note) = report.notes.get_mut(name) {
            note.push_str(", virtual time, 1 ms clock");
        }
    }
    // Virtual time, like the latencies: the simulator's wall-clock speed is
    // `setup_s` and the per-layer `sim.*` figures.
    let workload_s = (CHURN_S + DRAIN_S) as f64;
    report.set_noted(
        "goodput_ops_s",
        tally.ok() as f64 / workload_s,
        format!(
            "{} ok ops per simulated second of churn_write + read_drain",
            tally.ok()
        ),
    );
    report.set_noted(
        "ok_op_ratio",
        1.0 - tally.failed_ratio(),
        format!(
            "failed_op_ratio {:.6} = {} / {}",
            tally.failed_ratio(),
            tally.failed(),
            tally.scheduled
        ),
    );
    report.set_noted(
        "acked_read_hit_ratio",
        tally.acked_read_hit_ratio(),
        format!("{} / {}", tally.acked_hits, tally.acked_reads),
    );
    let measured_cpu = cpu_ns(&m1, &m3);
    report.set_opt(
        "proc.cpu_ms_per_kop",
        measured_cpu.map(|ns| ns / 1e6 / (tally.ok().max(1) as f64 / 1_000.0)),
    );
    let node_stats = sim.node_stats();
    let mut stats = NodeStats::new();
    for s in &node_stats {
        stats.merge(s);
    }
    report.set_noted(
        "request_msgs_per_op",
        (stats.sent(MessageKind::Request) + stats.sent(MessageKind::Reply)) as f64 / ops,
        "alive nodes' counters".to_string(),
    );
    report.set_opt("peak_rss_mb", procfs::peak_rss_mb());
    let sim_seconds = (WARMUP_S + CHURN_S + DRAIN_S) as f64;
    let total_wall = wall_s(&m0, &m3);
    report.extra(
        "sim_wall_ms_per_sim_s",
        format!("{:.3}", total_wall * 1_000.0 / sim_seconds),
    );
    report.extra(
        "acks / hits / misses(acked) / timeouts / wrong",
        format!(
            "{} / {} / {} / {} / {}",
            tally.acks, tally.hits, tally.misses_acked, tally.timeouts, tally.wrong_values
        ),
    );

    if !traced {
        return report;
    }
    let mut tracer = tracer.expect("traced run has a tracer");

    // ---- per-layer ----
    crate::node_metrics(
        &mut report,
        &stats,
        node_stats.len(),
        sim_seconds,
        ops,
        config.replication.anti_entropy_period.as_secs() as f64,
    );
    let objects: usize = sim
        .alive_nodes()
        .iter()
        .map(|&id| sim.node(id).store().len())
        .sum();
    let objects_per_node = objects as f64 / sim.alive_count().max(1) as f64;
    report.set("store.objects_per_node", objects_per_node);
    report.set("store.replicas_per_key", objects as f64 / OPS as f64);
    report.set("sim.events_per_s", m3.events as f64 / total_wall);
    report.set("sim.events_per_op", (m3.events - m1.events) as f64 / ops);
    report.set("sim.timer_fires", m3.timers as f64);
    report.set("sim.wall_ms_per_sim_s", total_wall * 1_000.0 / sim_seconds);
    report.set("sim.phase_wall_s.warmup", setup_s);
    report.set("sim.phase_wall_s.churn_write", wall_s(&m1, &m2));
    report.set("sim.phase_wall_s.read_drain", wall_s(&m2, &m3));
    let populations = sim.slice_populations();
    report.set("slicing.populated_slices", populations.len() as f64);
    report.set(
        "slicing.min_slice_population",
        populations.iter().map(|&(_, n)| n).min().unwrap_or(0) as f64,
    );

    // ---- layer replay and reconciliation ----
    let replay_start = tracer.now_ns();
    let store_cost = replay::store(
        &state.keys,
        objects_per_node.round() as usize,
        VALUE_LEN,
        config.effective_store_shards(),
    );
    let wheel_ns = replay::wheel(NODES, true);
    let replay_end = tracer.now_ns();
    tracer.record("replay.layers", None, replay_start, replay_end);
    report.set("store.put_ns", store_cost.put_ns);
    report.set("store.get_ns", store_cost.get_ns);
    report.set("store.range_digest_us", store_cost.range_digest_us);
    report.set("store.objects_newer_than_us", store_cost.newer_than_us);
    report.set("wheel.arm_fire_ns", wheel_ns);
    // Timers cost a wheel arm + fire each; store operations are spread over
    // the windows in proportion to the messages delivered in them.
    let store_ns = (stats.puts_stored + stats.puts_ignored + stats.objects_repaired) as f64
        * store_cost.put_ns
        + (stats.gets_hit + stats.gets_missed) as f64 * store_cost.get_ns;
    let delivered = (m3.delivered - m0.delivered).max(1) as f64;
    let windows: Vec<(&str, f64, f64)> = [
        ("warmup", &m0, &m1),
        ("churn_write", &m1, &m2),
        ("read_drain", &m2, &m3),
    ]
    .iter()
    .filter_map(|(name, a, b)| {
        let measured = cpu_ns(a, b)?;
        let modelled = (b.timers - a.timers) as f64 * wheel_ns
            + store_ns * (b.delivered - a.delivered) as f64 / delivered;
        Some((*name, measured, modelled))
    })
    .collect();
    crate::set_reconciliation(&mut report, &windows);
    let spans_per_op = tracer.spans().len() as f64 / ops;
    report.set("trace.spans_per_op", spans_per_op);
    report.set(
        "trace.overhead_us_per_op",
        spans_per_op * span_cost_ns() / 1_000.0,
    );
    crate::write_trace(&tracer, &mut report, &format!("sim-churn-10k-{seed}"));
    report
}
