//! Replays that isolate one layer's share of a run.
//!
//! * [`queue`] drives an `Engine` over an empty world with the run's
//!   schedule, replace and cancel counts at the run's peak heap depth: the
//!   event-queue cost per executed event, without any handler.
//! * [`transit`] feeds a captured Tx stream through `Fabric::transit` on
//!   a fresh fabric of the same topology: the fabric cost per frame,
//!   without the NIC or QP code around it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ibsim_event::{Engine, QueueStats, SimTime, SplitMix64, TimerKey};

use crate::workload::{device, fresh_fabric, Tx, Workload};

/// Keyed timers kept armed for the replace and cancel traffic.
const KEYED: u64 = 1024;
/// Fire times of plain events: up to 1 ms ahead, about the spread of the
/// simulator's packet and timer events.
const HORIZON_NS: u64 = 1_000_000;
/// Keyed timers are armed far enough out that they never fire.
const FAR_NS: u64 = 1_000_000_000_000;

/// Host time an empty-world engine takes for `qs.executed` events at
/// depth `qs.peak_depth`, with `qs.replaced` keyed re-arms and
/// `qs.cancelled` cancels spread evenly between them. Every event
/// carries a 16-byte payload, so each schedule boxes like a real one.
pub fn queue(qs: &QueueStats, seed: u64) -> Duration {
    let mut eng: Engine<u64> = Engine::new();
    let mut world = 0u64;
    let mut rng = SplitMix64::new(seed);
    let plain = |eng: &mut Engine<u64>, rng: &mut SplitMix64| {
        let payload = [rng.next_u64(), 1];
        let at = eng.now() + SimTime::from_ns(1 + rng.next_below(HORIZON_NS));
        eng.schedule_at(at, move |w: &mut u64, _| *w ^= payload[0] + payload[1]);
    };
    let keyed = |eng: &mut Engine<u64>, rng: &mut SplitMix64| {
        let payload = [rng.next_u64(), 2];
        let key = TimerKey(0, rng.next_below(KEYED));
        let at = eng.now() + SimTime::from_ns(FAR_NS);
        eng.schedule_keyed_at(key, at, move |w: &mut u64, _| *w ^= payload[0] + payload[1]);
    };
    for k in 0..KEYED {
        let at = SimTime::from_ns(FAR_NS + k);
        eng.schedule_keyed_at(TimerKey(0, k), at, |w: &mut u64, _| *w += 1);
    }
    for _ in 0..qs.peak_depth.max(1) {
        plain(&mut eng, &mut rng);
    }
    let executed = qs.executed.max(1);
    let (mut replaced, mut cancelled) = (0u64, 0u64);
    let started = Instant::now();
    for i in 1..=executed {
        eng.step(&mut world);
        plain(&mut eng, &mut rng);
        while replaced * executed < qs.replaced * i {
            keyed(&mut eng, &mut rng);
            replaced += 1;
        }
        while cancelled * executed < qs.cancelled * i {
            eng.cancel_key(TimerKey(0, rng.next_below(KEYED)));
            keyed(&mut eng, &mut rng);
            cancelled += 1;
        }
    }
    let took = started.elapsed();
    black_box(world);
    took
}

/// Host time `Fabric::transit` takes for `tx` on a fresh `w` fabric of
/// `hosts` hosts, in submit order.
pub fn transit(w: Workload, hosts: usize, tx: &mut [Tx]) -> Duration {
    let mut fabric = fresh_fabric(w);
    let link = device().link;
    for h in 0..hosts {
        fabric.add_host_with(&format!("h{h}"), link);
    }
    tx.sort_by_key(|t| t.at);
    let started = Instant::now();
    for t in tx.iter() {
        black_box(fabric.transit(t.at, t.src, t.dst, t.bytes));
    }
    started.elapsed()
}
