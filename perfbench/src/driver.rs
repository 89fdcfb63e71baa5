//! The benchmark's open-loop driver: a seeded Poisson schedule, one
//! generator thread that submits each operation at its due time through a
//! [`PipelinedClient`], and the accounting of what came back.
//!
//! Reads and writes keep separate latency samples, both timed from the
//! operation's due time (so a stalled generator charges its stall to the
//! operations it delayed). How late the generator itself ran is recorded
//! as lag. A miss on a key whose write was acknowledged before the read
//! was due is a failure, and a hit whose bytes do not match the version it
//! returned is a wrong value.

use std::collections::HashMap;
use std::time::{Duration as StdDuration, Instant};

use dataflasks::core::{Completion, PipelinedClient, TicketOutcome};
use dataflasks::types::{Duration, Key, NodeId, RequestId, SlicePartition, StoredObject, Version};
use dataflasks::workload::ZipfianGenerator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Tracer;
use crate::values::{is_genuine, value_for};

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A get of the latest version.
    Read,
    /// A put of the next version.
    Write,
}

/// One operation of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledOp {
    /// Due time, in microseconds from the start of the phase.
    pub due_us: u64,
    /// Read or write.
    pub kind: OpKind,
    /// Record addressed.
    pub record: u32,
    /// Version written (writes), 0 for reads.
    pub version: u64,
}

/// The shape of a phase's schedule.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Mean arrival rate, operations per second.
    pub rate: f64,
    /// Scheduled length of the phase, in seconds.
    pub seconds: f64,
    /// Share of reads in `[0, 1]`.
    pub read_fraction: f64,
    /// Zipfian skew over the records, or `None` for uniform keys.
    pub zipf_theta: Option<f64>,
}

/// Generates a Poisson schedule. `versions[record]` holds the highest
/// version already scheduled for each record and is advanced by every
/// write, so versions keep increasing across phases.
#[must_use]
pub fn generate(mix: &Mix, seed: u64, versions: &mut [u64]) -> Vec<ScheduledOp> {
    let records = versions.len();
    assert!(
        records > 0 && mix.rate > 0.0,
        "a schedule needs records and a rate"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = mix
        .zipf_theta
        .map(|theta| ZipfianGenerator::new(records as u64, theta));
    let span_us = mix.seconds * 1e6;
    let mean_gap_us = 1e6 / mix.rate;
    let mut clock_us = 0.0f64;
    let mut ops = Vec::with_capacity((mix.rate * mix.seconds * 1.1) as usize);
    loop {
        let u: f64 = rng.gen();
        clock_us += -mean_gap_us * (1.0 - u).ln();
        if clock_us >= span_us {
            break;
        }
        let record = match &zipf {
            Some(zipf) => (zipf.next_value(&mut rng) as usize).min(records - 1),
            None => rng.gen_range(0..records),
        };
        let (kind, version) = if rng.gen::<f64>() < mix.read_fraction {
            (OpKind::Read, 0)
        } else {
            versions[record] += 1;
            (OpKind::Write, versions[record])
        };
        ops.push(ScheduledOp {
            due_us: clock_us as u64,
            kind,
            record: record as u32,
            version,
        });
    }
    ops
}

/// What the store is known to hold, per record, across phases.
#[derive(Debug, Clone)]
pub struct KeyState {
    /// The record keys.
    pub keys: Vec<Key>,
    /// Payload length of every write.
    pub value_len: usize,
    /// When each record's first write was acknowledged, in microseconds
    /// on the benchmark clock.
    acked_at_us: Vec<Option<u64>>,
    /// Highest version submitted per record.
    written: Vec<u64>,
}

impl KeyState {
    /// Records with nothing written yet.
    #[must_use]
    pub fn new(keys: Vec<Key>, value_len: usize) -> Self {
        let records = keys.len();
        Self {
            keys,
            value_len,
            acked_at_us: vec![None; records],
            written: vec![0; records],
        }
    }

    /// Marks `record` as written at `version` and acknowledged at `at_us`.
    pub fn preloaded(&mut self, record: usize, version: u64, at_us: u64) {
        self.wrote(record, version);
        self.acked_at_us[record].get_or_insert(at_us);
    }

    /// Marks `record` as written up to `version` (not yet acknowledged).
    pub fn wrote(&mut self, record: usize, version: u64) {
        self.written[record] = self.written[record].max(version);
    }

    fn acked_by(&self, record: usize, at_us: u64) -> bool {
        self.acked_at_us[record].is_some_and(|acked| acked <= at_us)
    }
}

/// How an operation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A replica acknowledged the write.
    Acked,
    /// A replica returned an object.
    Hit(StoredObject),
    /// Only "not found" answers arrived before the deadline.
    Miss,
    /// Nothing arrived before the deadline.
    TimedOut,
}

impl From<TicketOutcome> for Outcome {
    fn from(outcome: TicketOutcome) -> Self {
        match outcome {
            TicketOutcome::Acked(_) => Self::Acked,
            TicketOutcome::Hit(object) => Self::Hit(object),
            TicketOutcome::Miss => Self::Miss,
            TicketOutcome::TimedOut => Self::TimedOut,
        }
    }
}

/// The accounting of one phase.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations in the schedule.
    pub scheduled: u64,
    /// Operations handed to the client.
    pub submitted: u64,
    /// Arrivals dropped at the in-flight cap.
    pub shed: u64,
    /// Submissions the client refused.
    pub submit_errors: u64,
    /// Writes acknowledged.
    pub acks: u64,
    /// Reads answered with a genuine object.
    pub hits: u64,
    /// Reads of records acknowledged before the read was due.
    pub acked_reads: u64,
    /// Hits among [`Self::acked_reads`].
    pub acked_hits: u64,
    /// Misses on acknowledged records (failures).
    pub misses_acked: u64,
    /// Misses on records not yet acknowledged (correct answers).
    pub misses_unacked: u64,
    /// Operations that heard nothing before their deadline.
    pub timeouts: u64,
    /// Hits whose bytes do not match their version.
    pub wrong_values: u64,
    /// Successful completions at or before the end of the schedule.
    pub ok_in_window: u64,
    /// Read latencies of successful reads, µs from due time.
    pub read_us: Vec<f64>,
    /// Write latencies of acknowledged writes, µs from due time.
    pub write_us: Vec<f64>,
    /// Submit time minus due time, µs.
    pub lag_us: Vec<f64>,
}

impl Tally {
    /// Operations that failed: sheds, submit errors, timeouts, misses on
    /// acknowledged records and wrong values.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.shed + self.submit_errors + self.timeouts + self.misses_acked + self.wrong_values
    }

    /// Operations that ended well.
    #[must_use]
    pub fn ok(&self) -> u64 {
        self.acks + self.hits + self.misses_unacked
    }

    /// Failed operations over scheduled ones.
    #[must_use]
    pub fn failed_ratio(&self) -> f64 {
        self.failed() as f64 / self.scheduled.max(1) as f64
    }

    /// Hits over reads of acknowledged records.
    #[must_use]
    pub fn acked_read_hit_ratio(&self) -> f64 {
        self.acked_hits as f64 / self.acked_reads.max(1) as f64
    }

    /// Counts a scheduled operation; returns whether it is a read of an
    /// acknowledged record.
    pub fn schedule(&mut self, keys: &KeyState, op: &ScheduledOp, due_abs_us: u64) -> bool {
        self.scheduled += 1;
        let acked_read = op.kind == OpKind::Read && keys.acked_by(op.record as usize, due_abs_us);
        self.acked_reads += u64::from(acked_read);
        acked_read
    }

    /// Accounts one finished operation. `now_abs_us` and `due_abs_us` are
    /// on the benchmark clock; `window_end_abs_us` bounds the goodput count.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        keys: &mut KeyState,
        op: &ScheduledOp,
        acked_read: bool,
        outcome: &Outcome,
        due_abs_us: u64,
        now_abs_us: u64,
        window_end_abs_us: u64,
    ) {
        let record = op.record as usize;
        let latency = now_abs_us.saturating_sub(due_abs_us) as f64;
        let ok = match outcome {
            Outcome::Acked => {
                self.acks += 1;
                self.write_us.push(latency);
                keys.acked_at_us[record].get_or_insert(now_abs_us);
                true
            }
            Outcome::Hit(object) => {
                if is_genuine(
                    object,
                    keys.keys[record],
                    keys.written[record],
                    keys.value_len,
                ) {
                    self.hits += 1;
                    self.acked_hits += u64::from(acked_read);
                    self.read_us.push(latency);
                    true
                } else {
                    self.wrong_values += 1;
                    false
                }
            }
            Outcome::Miss if acked_read => {
                self.misses_acked += 1;
                false
            }
            Outcome::Miss => {
                self.misses_unacked += 1;
                true
            }
            Outcome::TimedOut => {
                self.timeouts += 1;
                false
            }
        };
        if ok && now_abs_us <= window_end_abs_us {
            self.ok_in_window += 1;
        }
    }
}

/// Picks a contact inside each key's slice, as a slice-aware client would.
#[derive(Debug, Clone)]
pub struct ContactPlan {
    partition: SlicePartition,
    members: Vec<Vec<NodeId>>,
}

impl ContactPlan {
    /// Builds the plan from each node's slice.
    ///
    /// # Panics
    ///
    /// Panics if a slice has no member.
    #[must_use]
    pub fn new(
        partition: SlicePartition,
        slices_of: impl Iterator<Item = (NodeId, Option<u32>)>,
    ) -> Self {
        let mut members = vec![Vec::new(); partition.slice_count() as usize];
        for (node, slice) in slices_of {
            if let Some(slice) = slice {
                members[slice as usize].push(node);
            }
        }
        assert!(
            members.iter().all(|m| !m.is_empty()),
            "every slice needs a member"
        );
        Self { partition, members }
    }

    /// A member of `key`'s slice.
    pub fn contact_for(&self, key: Key, rng: &mut StdRng) -> NodeId {
        let members = &self.members[self.partition.slice_of(key).index() as usize];
        members[rng.gen_range(0..members.len())]
    }

    /// Learns from a reply that `node` now belongs to `slice`, as the
    /// client library's load balancer does: nodes move between slices.
    pub fn learn(&mut self, node: NodeId, slice: Option<u32>) {
        let Some(slice) = slice.filter(|&s| (s as usize) < self.members.len()) else {
            return;
        };
        if self.members[slice as usize].contains(&node) {
            return;
        }
        for (index, members) in self.members.iter_mut().enumerate() {
            // Never empty a slice: a stale contact beats none.
            if index != slice as usize && members.len() > 1 {
                members.retain(|&m| m != node);
            }
        }
        self.members[slice as usize].push(node);
    }
}

/// Knobs of one phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseParams {
    /// Arrivals finding this many operations in flight are shed.
    pub inflight_cap: usize,
    /// Per-operation deadline.
    pub op_timeout: Duration,
}

/// What one phase measured.
#[derive(Debug, Clone, Default)]
pub struct PhaseResult {
    /// The accounting.
    pub tally: Tally,
    /// Scheduled length, µs.
    pub span_us: u64,
    /// From the phase start until every operation resolved.
    pub wall: StdDuration,
    /// Time inside `submit_*` calls, ns each (traced runs only).
    pub submit_ns: Vec<u64>,
    /// Time inside `poll_completions`, ns in total (traced runs only).
    pub poll_ns: u64,
    /// Completions the polls returned.
    pub completions: u64,
}

/// Harvest interval of the generator, µs: the resolution of every
/// latency it measures.
const POLL_EVERY_US: u64 = 50;

struct Pending {
    index: usize,
    acked_read: bool,
}

/// Drives `ops` through `client`, one generator thread, open loop.
/// `clock` is the benchmark clock all phases share.
#[allow(clippy::too_many_arguments)]
pub fn run_phase<C: PipelinedClient + ?Sized>(
    client: &C,
    ops: &[ScheduledOp],
    keys: &mut KeyState,
    contacts: &mut ContactPlan,
    seed: u64,
    params: PhaseParams,
    clock: Instant,
    mut tracer: Option<&mut Tracer>,
) -> PhaseResult {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0_47AC7);
    let mut result = PhaseResult {
        span_us: ops.last().map_or(0, |op| op.due_us),
        ..PhaseResult::default()
    };
    let start = Instant::now();
    let offset_us = start.duration_since(clock).as_micros() as u64;
    let window_end = offset_us + result.span_us;
    let mut pending: HashMap<RequestId, Pending> = HashMap::with_capacity(4_096);
    let mut harvest: Vec<Completion> = Vec::with_capacity(256);

    let mut poll = |pending: &mut HashMap<RequestId, Pending>,
                    keys: &mut KeyState,
                    contacts: &mut ContactPlan,
                    result: &mut PhaseResult,
                    tracer: &mut Option<&mut Tracer>| {
        let before = tracer.as_ref().map(|t| t.now_ns());
        client.poll_completions(&mut harvest);
        if let (Some(t), Some(before)) = (tracer.as_mut(), before) {
            let after = t.now_ns();
            result.poll_ns += after - before;
            t.record("gateway.poll_completions", None, before, after);
        }
        let now_abs = clock.elapsed().as_micros() as u64;
        result.completions += harvest.len() as u64;
        for completion in harvest.drain(..) {
            let id = completion.ticket.request_id();
            if let TicketOutcome::Acked(reply) = &completion.outcome {
                contacts.learn(reply.responder, reply.responder_slice.map(|s| s.index()));
            }
            let Some(slot) = pending.remove(&id) else {
                continue;
            };
            let op = &ops[slot.index];
            let due_abs = offset_us + op.due_us;
            result.tally.complete(
                keys,
                op,
                slot.acked_read,
                &completion.outcome.into(),
                due_abs,
                now_abs,
                window_end,
            );
            if let Some(t) = tracer.as_mut() {
                // The tracer shares the benchmark clock.
                t.record("client.op", Some(id), due_abs * 1_000, now_abs * 1_000);
            }
        }
    };

    let mut last_poll_us = 0u64;
    for (index, op) in ops.iter().enumerate() {
        // Pace to the schedule, harvesting every POLL_EVERY_US whether the
        // generator is early or late (a poll scans every in-flight ticket,
        // so polling on every spin would make the generator the
        // bottleneck). Waits sleep in sub-millisecond slices instead of
        // spinning, so the generator does not starve the threads it
        // measures on a small host.
        loop {
            let now_us = start.elapsed().as_micros() as u64;
            if now_us >= last_poll_us + POLL_EVERY_US {
                poll(&mut pending, keys, contacts, &mut result, &mut tracer);
                last_poll_us = now_us;
            }
            if now_us >= op.due_us {
                break;
            }
            let remaining = op.due_us - now_us;
            if remaining > 200 {
                std::thread::sleep(StdDuration::from_micros(remaining.min(500)));
            } else {
                std::thread::yield_now();
            }
        }
        let due_abs = offset_us + op.due_us;
        let acked_read = result.tally.schedule(keys, op, due_abs);
        if client.inflight() >= params.inflight_cap {
            client.note_shed();
            result.tally.shed += 1;
            continue;
        }
        let key = keys.keys[op.record as usize];
        let contact = contacts.contact_for(key, &mut rng);
        let before = tracer.as_ref().map(|t| t.now_ns());
        let submitted = match op.kind {
            OpKind::Read => client.submit_get(Some(contact), key, None, params.op_timeout),
            OpKind::Write => {
                let version = Version::new(op.version);
                let value = value_for(key, version, keys.value_len);
                keys.wrote(op.record as usize, op.version);
                client.submit_put(Some(contact), key, version, value, params.op_timeout)
            }
        };
        let submit_abs = clock.elapsed().as_micros() as u64;
        result
            .tally
            .lag_us
            .push(submit_abs.saturating_sub(due_abs) as f64);
        match submitted {
            Ok(ticket) => {
                result.tally.submitted += 1;
                if let (Some(t), Some(before)) = (tracer.as_mut(), before) {
                    let after = t.now_ns();
                    result.submit_ns.push(after - before);
                    let name = match op.kind {
                        OpKind::Read => "gateway.submit_get",
                        OpKind::Write => "gateway.submit_put",
                    };
                    t.record(name, Some(ticket.request_id()), before, after);
                }
                pending.insert(ticket.request_id(), Pending { index, acked_read });
            }
            Err(_) => result.tally.submit_errors += 1,
        }
    }

    // Stragglers resolve by their own ticket deadline; a grace on top
    // bounds the wait should a ticket never resolve.
    let deadline = Instant::now()
        + StdDuration::from_millis(params.op_timeout.as_millis())
        + StdDuration::from_secs(1);
    while !pending.is_empty() && Instant::now() < deadline {
        poll(&mut pending, keys, contacts, &mut result, &mut tracer);
        if !pending.is_empty() {
            std::thread::sleep(StdDuration::from_micros(200));
        }
    }
    result.tally.timeouts += pending.len() as u64;
    result.wall = start.elapsed();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflasks::types::Value;

    fn state(records: usize) -> KeyState {
        let keys = (0..records)
            .map(|r| Key::from_user_key(&format!("t{r}")))
            .collect();
        KeyState::new(keys, 16)
    }

    fn op(kind: OpKind, record: u32, version: u64) -> ScheduledOp {
        ScheduledOp {
            due_us: 0,
            kind,
            record,
            version,
        }
    }

    #[test]
    fn schedule_is_seeded_and_versions_increase_across_phases() {
        let mix = Mix {
            rate: 10_000.0,
            seconds: 1.0,
            read_fraction: 0.5,
            zipf_theta: Some(0.99),
        };
        let mut a = vec![1u64; 50];
        let mut b = vec![1u64; 50];
        let first = generate(&mix, 9, &mut a);
        assert_eq!(first, generate(&mix, 9, &mut b));
        assert_ne!(first, generate(&mix, 10, &mut vec![1u64; 50]));
        assert!((9_000..11_000).contains(&first.len()), "{}", first.len());
        assert!(first.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        assert!(first.last().unwrap().due_us < 1_000_000);
        let second = generate(&mix, 11, &mut a);
        for record in 0..50u32 {
            let versions: Vec<u64> = first
                .iter()
                .chain(&second)
                .filter(|o| o.record == record && o.kind == OpKind::Write)
                .map(|o| o.version)
                .collect();
            assert!(versions.windows(2).all(|w| w[0] < w[1]));
            assert!(versions.iter().all(|&v| v >= 2));
        }
    }

    #[test]
    fn reads_and_writes_keep_separate_latencies() {
        let mut keys = state(2);
        keys.preloaded(0, 1, 0);
        let mut tally = Tally::default();
        let write = op(OpKind::Write, 1, 1);
        keys.wrote(1, 1);
        assert!(!tally.schedule(&keys, &write, 100));
        tally.complete(&mut keys, &write, false, &Outcome::Acked, 100, 400, 1_000);
        let read = op(OpKind::Read, 0, 0);
        let acked = tally.schedule(&keys, &read, 100);
        assert!(acked);
        let object = StoredObject::new(
            keys.keys[0],
            Version::new(1),
            value_for(keys.keys[0], Version::new(1), 16),
        );
        tally.complete(
            &mut keys,
            &read,
            acked,
            &Outcome::Hit(object),
            100,
            150,
            1_000,
        );
        assert_eq!(tally.write_us, vec![300.0]);
        assert_eq!(tally.read_us, vec![50.0]);
        assert_eq!((tally.acks, tally.hits, tally.failed()), (1, 1, 0));
        assert_eq!(tally.acked_read_hit_ratio(), 1.0);
        assert_eq!(tally.ok_in_window, 2);
    }

    #[test]
    fn a_miss_on_an_acked_key_is_a_failure() {
        let mut keys = state(2);
        keys.preloaded(0, 1, 10);
        let mut tally = Tally::default();
        // Record 0 was acked at 10 µs: a read due at 20 must find it.
        let read = op(OpKind::Read, 0, 0);
        let acked = tally.schedule(&keys, &read, 20);
        tally.complete(&mut keys, &read, acked, &Outcome::Miss, 20, 90, 1_000);
        // Record 1 was never written: its miss is a correct answer.
        let cold = op(OpKind::Read, 1, 0);
        let acked_cold = tally.schedule(&keys, &cold, 20);
        tally.complete(&mut keys, &cold, acked_cold, &Outcome::Miss, 20, 90, 1_000);
        assert_eq!((tally.misses_acked, tally.misses_unacked), (1, 1));
        assert_eq!(tally.failed(), 1);
        assert_eq!(tally.acked_reads, 1);
        assert_eq!(tally.acked_read_hit_ratio(), 0.0);
        assert!(tally.read_us.is_empty(), "misses carry no latency sample");
    }

    #[test]
    fn a_read_due_before_the_ack_is_not_an_acked_read() {
        let mut keys = state(1);
        keys.preloaded(0, 1, 500);
        let mut tally = Tally::default();
        assert!(!tally.schedule(&keys, &op(OpKind::Read, 0, 0), 499));
        assert!(tally.schedule(&keys, &op(OpKind::Read, 0, 0), 500));
    }

    #[test]
    fn wrong_bytes_timeouts_and_sheds_fail() {
        let mut keys = state(1);
        keys.preloaded(0, 2, 0);
        let mut tally = Tally::default();
        let read = op(OpKind::Read, 0, 0);
        let acked = tally.schedule(&keys, &read, 5);
        let forged = StoredObject::new(keys.keys[0], Version::new(2), Value::filled(16, 1));
        tally.complete(&mut keys, &read, acked, &Outcome::Hit(forged), 5, 6, 1_000);
        tally.schedule(&keys, &read, 5);
        tally.complete(&mut keys, &read, acked, &Outcome::TimedOut, 5, 6, 1_000);
        tally.schedule(&keys, &read, 5);
        tally.shed += 1;
        assert_eq!((tally.wrong_values, tally.timeouts, tally.shed), (1, 1, 1));
        assert_eq!(tally.failed(), 3);
        assert_eq!(tally.scheduled, 3);
        assert_eq!(tally.failed_ratio(), 1.0);
        assert_eq!(tally.ok_in_window, 0);
    }

    #[test]
    fn completions_after_the_window_do_not_count_as_goodput() {
        let mut keys = state(1);
        let mut tally = Tally::default();
        let write = op(OpKind::Write, 0, 1);
        keys.wrote(0, 1);
        tally.complete(&mut keys, &write, false, &Outcome::Acked, 0, 2_000, 1_000);
        assert_eq!((tally.acks, tally.ok_in_window), (1, 0));
    }
}
