//! Layer replay: times each layer's public functions on inputs shaped like
//! the workload (its message mix, its store size, its host count), so the
//! traced run's counts can be turned into CPU time per layer.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use dataflasks::core::wire::{decode_frame, encode_frame, encode_frame_into};
use dataflasks::core::{
    DisseminationPhase, EffectBuffer, GetRequest, Inbox, Message, MessageKind, NodeStats, Output,
    Poll, PutRequest, Scheduler, SchedulerConfig, TimerKind, TimerWheel,
};
use dataflasks::net_env::ReassemblyBuffer;
use dataflasks::prelude::{
    DataFlasksNode, DataStore, DefaultStore, Key, NodeId, RequestId, ShardedStore, SimTime,
    SliceId, SlicePartition, StoredObject, Version,
};
use dataflasks::types::Duration;

use crate::values::value_for;

/// Runs `body` repeatedly until at least `budget` elapsed, returning the
/// mean time per call in ns. `body` returns how many calls it made.
fn time_per_call(budget: StdDuration, mut body: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < budget || calls == 0 {
        calls += body();
    }
    start.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

const BUDGET: StdDuration = StdDuration::from_millis(150);

/// Wire costs of the workload's message mix.
#[derive(Debug, Clone, Default)]
pub struct WireCost {
    /// Mean encode time per message, ns.
    pub encode_ns: f64,
    /// Mean decode time per message, ns.
    pub decode_ns: f64,
    /// Mean frame size per message, bytes.
    pub bytes: f64,
    /// One encoded frame per sample message, for the reassembly replay.
    pub frames: Vec<Vec<u8>>,
}

/// Captures the messages real nodes emit: each sample node fires every
/// protocol timer, and requests are built from the workload's keys and
/// value size. Costs are averaged with each kind weighted by how many
/// messages of that kind the cluster sent.
pub fn wire(
    nodes: &mut [DataFlasksNode<DefaultStore>],
    sent: &NodeStats,
    keys: &[Key],
    value_len: usize,
) -> WireCost {
    let mut samples: Vec<(MessageKind, NodeId, Message)> = Vec::new();
    let mut fx = EffectBuffer::new();
    for node in nodes.iter_mut().take(16) {
        for kind in TimerKind::ALL {
            node.on_timer(kind, SimTime::from_millis(600_000), &mut fx);
            for output in fx.drain() {
                let messages = match output {
                    Output::Send { message, .. } => vec![message],
                    Output::SendBatch { messages, .. } => messages,
                    Output::Reply { .. } | Output::Timer { .. } => Vec::new(),
                };
                samples.extend(messages.into_iter().map(|m| (m.kind(), node.id(), m)));
            }
        }
    }
    for (index, &key) in keys.iter().take(32).enumerate() {
        let id = RequestId::new(1, index as u64);
        let object = StoredObject::new(
            key,
            Version::new(2),
            value_for(key, Version::new(2), value_len),
        );
        let put = Message::Put(Arc::new(PutRequest {
            id,
            client: 1,
            object,
            phase: DisseminationPhase::IntraSlice,
            ttl: 4,
        }));
        let get = Message::Get(Arc::new(GetRequest {
            id,
            client: 1,
            key,
            version: None,
            phase: DisseminationPhase::IntraSlice,
            ttl: 4,
        }));
        samples.push((MessageKind::Request, NodeId::new(0), put));
        samples.push((MessageKind::Request, NodeId::new(0), get));
    }

    let mut cost = WireCost::default();
    let mut weight_total = 0.0;
    let mut buf = Vec::with_capacity(1 << 16);
    for kind in [
        MessageKind::Membership,
        MessageKind::Slicing,
        MessageKind::Request,
        MessageKind::AntiEntropy,
    ] {
        let of_kind: Vec<&(MessageKind, NodeId, Message)> =
            samples.iter().filter(|s| s.0 == kind).collect();
        let weight = sent.sent(kind) as f64;
        if of_kind.is_empty() || weight == 0.0 {
            continue;
        }
        let frames: Vec<Vec<u8>> = of_kind
            .iter()
            .map(|(_, from, message)| {
                let mut frame = Vec::new();
                encode_frame(*from, std::slice::from_ref(message), &mut frame).expect("frame fits");
                frame
            })
            .collect();
        let encode = time_per_call(BUDGET, || {
            for (_, from, message) in &of_kind {
                encode_frame_into(*from, std::slice::from_ref(message), &mut buf)
                    .expect("frame fits");
                black_box(&buf);
            }
            of_kind.len() as u64
        });
        let decode = time_per_call(BUDGET, || {
            for frame in &frames {
                black_box(decode_frame(frame).expect("own frame decodes"));
            }
            frames.len() as u64
        });
        let bytes = frames.iter().map(Vec::len).sum::<usize>() as f64 / frames.len() as f64;
        cost.encode_ns += weight * encode;
        cost.decode_ns += weight * decode;
        cost.bytes += weight * bytes;
        weight_total += weight;
        cost.frames.extend(frames);
    }
    if weight_total > 0.0 {
        cost.encode_ns /= weight_total;
        cost.decode_ns /= weight_total;
        cost.bytes /= weight_total;
    }
    cost
}

/// Reassembly cost of a byte stream made of `frames`, cut into 16 KiB
/// reads as a socket would deliver them: ns per KiB.
pub fn reassembly(frames: &[Vec<u8>]) -> f64 {
    let stream: Vec<u8> = frames.iter().flatten().copied().collect();
    if stream.is_empty() {
        return 0.0;
    }
    let mut buffer = ReassemblyBuffer::new();
    let ns_per_pass = time_per_call(BUDGET, || {
        for chunk in stream.chunks(16 * 1024) {
            buffer.extend_from_slice(chunk);
            while let Some(frame) = buffer.next_frame().expect("own frames decode") {
                black_box(frame);
            }
        }
        1
    });
    ns_per_pass / (stream.len() as f64 / 1024.0)
}

/// Store costs at the workload's per-node size.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreCost {
    /// One put of a newer version, ns.
    pub put_ns: f64,
    /// One get of the latest version, ns.
    pub get_ns: f64,
    /// One chunk digest, µs.
    pub range_digest_us: f64,
    /// One in-sync `objects_newer_than_in` over a chunk, µs.
    pub newer_than_us: f64,
}

/// Fills a store with `objects` of the workload's keys and times its
/// operations.
pub fn store(keys: &[Key], objects: usize, value_len: usize, shards: u32) -> StoreCost {
    let held = &keys[..objects.clamp(1, keys.len())];
    let mut store: DefaultStore = ShardedStore::new(shards);
    for &key in held {
        store
            .put(&StoredObject::new(
                key,
                Version::new(1),
                value_for(key, Version::new(1), value_len),
            ))
            .expect("unbounded store");
    }
    let mut version = 1u64;
    let put_ns = time_per_call(BUDGET, || {
        version += 1;
        for &key in held {
            let object = StoredObject::new(
                key,
                Version::new(version),
                value_for(key, Version::new(1), value_len),
            );
            black_box(store.put(&object).expect("unbounded store"));
        }
        held.len() as u64
    });
    let get_ns = time_per_call(BUDGET, || {
        for &key in held {
            black_box(store.get(key, None));
        }
        held.len() as u64
    });
    let chunks = SlicePartition::new(shards);
    let ranges: Vec<_> = (0..shards)
        .map(|i| chunks.range_of(SliceId::new(i)))
        .collect();
    let range_digest_ns = time_per_call(BUDGET, || {
        for &range in &ranges {
            black_box(store.range_digest(range));
        }
        ranges.len() as u64
    });
    let digests: Vec<_> = ranges
        .iter()
        .map(|&range| (range, store.range_digest(range)))
        .collect();
    let newer_ns = time_per_call(BUDGET, || {
        for (range, digest) in &digests {
            black_box(store.objects_newer_than_in(digest, *range, 64));
        }
        digests.len() as u64
    });
    StoreCost {
        put_ns,
        get_ns,
        range_digest_us: range_digest_ns / 1_000.0,
        newer_than_us: newer_ns / 1_000.0,
    }
}

/// Scheduler costs with the workload's host count on one worker:
/// `(mark_ready → next_ready → finish ns, inbox push + drain ns per item)`.
pub fn sched(hosts: usize) -> (f64, f64) {
    let scheduler = Scheduler::new(hosts, 1, SchedulerConfig::default());
    let mut slot = 0usize;
    let cycle = time_per_call(BUDGET, || {
        for _ in 0..1_024 {
            slot = (slot + 1) % hosts;
            scheduler.mark_ready(slot);
            match scheduler.next_ready(0, StdDuration::ZERO) {
                Poll::Ready(ready) => scheduler.finish(ready, false),
                Poll::Idle | Poll::Shutdown => unreachable!("a host was just marked ready"),
            }
        }
        1_024
    });
    let inbox: Inbox<Vec<u8>> = Inbox::new();
    let mut pool: Vec<Vec<u8>> = (0..64).map(|_| Vec::with_capacity(256)).collect();
    let push_drain = time_per_call(BUDGET, || {
        for item in pool.drain(..) {
            inbox.push(item);
        }
        inbox.drain_up_to(usize::MAX, &mut pool);
        64
    });
    (cycle, push_drain)
}

/// Timer-wheel cost per timer armed and fired, for `hosts` hosts with the
/// three protocol timers each, on the wall-clock wheel the cluster
/// runtimes use (`simulated: false`) or the simulator's virtual one.
pub fn wheel(hosts: usize, simulated: bool) -> f64 {
    let hosts = hosts.min(20_000);
    let timers = (hosts * TimerKind::ALL.len()) as u64;
    if simulated {
        let mut round = 0u64;
        let mut due = Vec::with_capacity(timers as usize);
        let mut wheel = TimerWheel::new(8_192, Duration::from_millis(1), SimTime::ZERO);
        time_per_call(BUDGET, || {
            let base = round * 8_192;
            round += 1;
            for host in 0..hosts {
                for (k, kind) in TimerKind::ALL.into_iter().enumerate() {
                    let at = base + 1 + ((host * 3 + k) as u64 * 7_919) % 8_000;
                    wheel.arm(host, kind, SimTime::from_millis(at));
                }
            }
            due.clear();
            wheel.advance(SimTime::from_millis(base + 8_192), &mut due);
            black_box(due.len());
            timers
        })
    } else {
        let tick = StdDuration::from_millis(5);
        let epoch = Instant::now();
        let mut round = 0u32;
        let mut due = Vec::with_capacity(timers as usize);
        let mut wheel = TimerWheel::new(1_024, tick, epoch);
        time_per_call(BUDGET, || {
            let base = epoch + tick * 1_024 * round;
            round += 1;
            for host in 0..hosts {
                for (k, kind) in TimerKind::ALL.into_iter().enumerate() {
                    let ticks = 1 + ((host * 3 + k) as u32 * 7_919) % 1_000;
                    wheel.arm(host, kind, base + tick * ticks);
                }
            }
            due.clear();
            wheel.advance(base + tick * 1_024, &mut due);
            black_box(due.len());
            timers
        })
    }
}
