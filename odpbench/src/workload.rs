//! The benchmark's workloads and the round that runs one of them.
//!
//! A run is a sequence of rounds seeded `seed`, `seed + 1`, …; every round
//! builds a fresh cluster, runs it to quiescence and checks what it left
//! behind. Each round is split into three host-time phases:
//!
//! * **setup** — everything before `Engine::run` / `run_sharded` starts
//!   executing events: hosts, MRs, seeded memory patterns,
//!   `connect_pair` and the initial posts (for a sharded run, the
//!   replica builds inside `run_sharded`);
//! * **run** — event execution;
//! * **report** — telemetry sync and JSONL export, CQ drain, byte
//!   verification, capture lint, and tearing the cluster down.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use ibsim_analysis::{lint_capture, LintConfig};
use ibsim_event::{QueueStats, SimTime, SplitMix64};
use ibsim_fabric::{Direction, Fabric, Lid, LinkSpec, TopologyKind};
use ibsim_odp::hash::fnv1a;
use ibsim_verbs::{
    export_jsonl, merge_shard_telemetry, run_sharded, Cluster, DeviceProfile, HostId, Labels,
    MrMode, QpConfig, Qpn, ReadWr, RecoveryKind, ShardPlan, Sim, WcStatus, WriteWr,
};

use crate::alloc;
use crate::trace::{StepHist, Tracer};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The §VI flood at scale on a sequential crossbar cluster.
    Flood,
    /// Storms and paced victims sharing fat-tree uplinks.
    Congestion,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Flood, Workload::Congestion];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Flood => "flood",
            Workload::Congestion => "congestion",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Host seconds one full-size round takes on a 2-vCPU x86-64 host;
    /// only used to turn `--seconds` into a fixed round count, so the
    /// work done (and every count) depends on the arguments alone.
    fn nominal_round_s(self) -> f64 {
        match self {
            Workload::Flood => 1.35,
            Workload::Congestion => 0.95,
        }
    }

    /// Rounds a run of `seconds` host seconds is made of.
    pub fn rounds(self, seconds: u64) -> usize {
        ((seconds as f64 / self.nominal_round_s()).round() as usize).max(1)
    }
}

/// How big one round is.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Client/server host pairs of the flood.
    pub flood_pairs: usize,
    /// QPs per flood pair; each READs 32 B into one shared cold page.
    pub pair_qps: usize,
    /// Storm QPs per congestion storm pair.
    pub storm_qps: usize,
    /// READs per storm QP.
    pub storm_reads: usize,
    /// Ops per congestion victim pair, alternately READ and WRITE.
    pub victim_ops: usize,
}

impl Size {
    /// The measured size.
    pub const FULL: Size = Size {
        flood_pairs: 128,
        pair_qps: 128,
        storm_qps: 64,
        storm_reads: 8,
        victim_ops: 128,
    };
    /// The size the benchmark's own tests run at.
    pub const TINY: Size = Size {
        flood_pairs: 4,
        pair_qps: 32,
        storm_qps: 8,
        storm_reads: 4,
        victim_ops: 16,
    };
}

/// Bytes each flood READ moves; `pair_qps` of them fill one page.
const FLOOD_LEN: u32 = 32;
/// Seeded source region on each flood server.
const FLOOD_SERVER_BYTES: u64 = 64 * 1024;
/// Flood pairs whose hosts a traced round captures for the transit replay.
const FLOOD_REPLAY_PAIRS: usize = 8;

/// Fat-tree leaves of the congestion workload (k = 4).
const LEAVES: usize = 4;
/// Bytes per storm READ: large responses, so a retransmitted window
/// costs real serialization time on the shared uplink.
const STORM_LEN: u32 = 2048;
/// Bytes per victim op.
const VICTIM_LEN: u32 = 64;
/// Victim pacing: first op and spacing (ns). The first op waits out the
/// storm's initial burst, which is the same under either backend.
const VICTIM_START_NS: u64 = 1_500_000;
const VICTIM_INTERVAL_NS: u64 = 150_000;

/// Bytes of simulated memory one seeded pattern word covers.
const WORD: u64 = 8;

/// The fabric a workload's cluster runs on; the transit replay builds
/// the same one.
pub(crate) fn fresh_fabric(w: Workload) -> Fabric {
    match w {
        Workload::Flood => Fabric::new(LinkSpec::default()),
        Workload::Congestion => {
            // Edge ports run full-rate FDR, leaf→spine uplinks 2 Gb/s:
            // the oversubscription that turns retransmit storms into
            // queueing delay for every flow sharing an uplink.
            let mut f = Fabric::new(LinkSpec {
                latency: SimTime::from_ns(300),
                bandwidth_gbps: 2,
            });
            f.set_topology(TopologyKind::FatTree { k: LEAVES as u16 });
            f.set_congestion(Some(SimTime::from_ns(500)), None);
            f
        }
    }
}

/// The NIC every host uses.
pub(crate) fn device() -> DeviceProfile {
    DeviceProfile::connectx4(LinkSpec::fdr())
}

/// `len` bytes of `host`'s seeded pattern from offset `off`: word `i`
/// of the pattern is the first draw of a SplitMix64 keyed by the seed,
/// the host and `i`, so any slice can be recomputed on its own.
fn pattern(seed: u64, host: HostId, off: u64, len: u64) -> Vec<u8> {
    let key = seed ^ ((host.0 as u64) << 40);
    let mut out = Vec::with_capacity(len as usize + 2 * WORD as usize);
    for word in off / WORD..(off + len).div_ceil(WORD) {
        out.extend_from_slice(&SplitMix64::new(key ^ word).next_u64().to_le_bytes());
    }
    let skip = (off % WORD) as usize;
    out.drain(..skip);
    out.truncate(len as usize);
    out
}

/// One posted work request and the bytes it must leave behind: `len`
/// bytes at `dst_addr` on `dst` equal to `src`'s pattern from `src_off`.
#[derive(Debug, Clone, Copy)]
struct Op {
    host: HostId,
    qpn: Qpn,
    id: u64,
    dst: HostId,
    dst_addr: u64,
    src: HostId,
    src_off: u64,
    len: u32,
}

/// A round ready to run.
struct Built {
    eng: Sim,
    cl: Cluster,
    /// The WRs this replica posts or schedules.
    ops: Vec<Op>,
    /// Requester hosts whose captures are linted in the report phase.
    lint: Vec<HostId>,
    /// Hosts whose Tx stream feeds the transit replay (traced rounds).
    replay: Vec<HostId>,
}

/// Builds one round. `shard` selects the replica of a sharded flood; posts
/// land only on owned hosts. `replay` also captures the hosts whose Tx
/// stream the transit replay consumes.
fn build(
    w: Workload,
    size: Size,
    seed: u64,
    shard: Option<(usize, &[usize])>,
    replay: bool,
    tr: &mut Tracer,
) -> Built {
    let eng = Sim::new();
    let mut cl = tr.span("Cluster::new", || Cluster::new(seed));
    cl.fabric = fresh_fabric(w);
    cl.telemetry_enable();
    let mut b = Built {
        eng,
        cl,
        ops: Vec::new(),
        lint: Vec::new(),
        replay: Vec::new(),
    };
    match w {
        Workload::Flood => build_flood(&mut b, size, seed, shard, replay, tr),
        Workload::Congestion => build_congestion(&mut b, size, seed, replay, tr),
    }
    b
}

/// The §VI flood: `flood_pairs` independent client/server pairs, every
/// QP of a pair READing a seeded 32 B slice of the server's pinned
/// pattern into its own slot of the client's single cold ODP page.
fn build_flood(
    b: &mut Built,
    size: Size,
    seed: u64,
    shard: Option<(usize, &[usize])>,
    replay: bool,
    tr: &mut Tracer,
) {
    let cl = &mut b.cl;
    let dev = device();
    tr.span("Cluster::add_host", || {
        for p in 0..size.flood_pairs {
            cl.add_host(&format!("client{p}"), dev.clone());
            cl.add_host(&format!("server{p}"), dev.clone());
        }
    });
    if let Some((id, owner)) = shard {
        cl.enable_sharding(id, owner.to_vec());
    }
    let cfg = QpConfig {
        cack: 18,
        ..QpConfig::default()
    };
    let page = size.pair_qps as u64 * u64::from(FLOOD_LEN);
    for p in 0..size.flood_pairs {
        let (c, s) = (HostId(2 * p), HostId(2 * p + 1));
        // A pair with neither end owned never interacts with this
        // replica, and MR keys and QPNs are per-host counters, so
        // skipping it shifts no owned identifier.
        if !(cl.owns(c) || cl.owns(s)) {
            continue;
        }
        if replay && p < FLOOD_REPLAY_PAIRS {
            for h in [c, s] {
                tr.span("Cluster::capture_enable", || cl.capture_enable(h));
                b.replay.push(h);
            }
        }
        let remote = tr.span("Cluster::alloc_mr", || {
            cl.alloc_mr(s, FLOOD_SERVER_BYTES, MrMode::Pinned)
        });
        let local = tr.span("Cluster::alloc_mr", || cl.alloc_mr(c, page, MrMode::Odp));
        if cl.owns(s) {
            let bytes = pattern(seed, s, 0, FLOOD_SERVER_BYTES);
            tr.span("Cluster::mem_write", || {
                cl.mem_write(s, remote.base, &bytes)
            });
        }
        let qps: Vec<Qpn> = (0..size.pair_qps)
            .map(|_| {
                tr.span("Cluster::connect_pair", || {
                    cl.connect_pair(&mut b.eng, c, s, cfg.clone()).0
                })
            })
            .collect();
        // Per-pair stream, so every replica draws the same offsets.
        let mut rng = SplitMix64::new(seed ^ ((p as u64) << 20));
        let slots = FLOOD_SERVER_BYTES / u64::from(FLOOD_LEN);
        for (i, &qpn) in qps.iter().enumerate() {
            let src_off = rng.next_below(slots) * u64::from(FLOOD_LEN);
            let dst_off = i as u64 * u64::from(FLOOD_LEN);
            if !cl.owns(c) {
                continue;
            }
            let wr = ReadWr::new((local.key, dst_off), (remote.key, src_off))
                .len(FLOOD_LEN)
                .id(i as u64);
            tr.span("Cluster::post", || cl.post(&mut b.eng, c, qpn, wr));
            b.ops.push(Op {
                host: c,
                qpn,
                id: i as u64,
                dst: c,
                dst_addr: local.base + dst_off,
                src: s,
                src_off,
                len: FLOOD_LEN,
            });
        }
    }
}

/// One storm pair and one victim pair per fat-tree leaf, each pair's
/// client on leaf `j` and server on leaf `j + 1`, so every pair crosses
/// a leaf→spine uplink shared with another pair's traffic. Storms READ
/// 2 KiB slices into cold ODP memory (go-back-N on even leaves,
/// selective repeat on odd); victims alternate paced 64 B READs and
/// WRITEs on pinned memory and are captured for the linter.
fn build_congestion(b: &mut Built, size: Size, seed: u64, replay: bool, tr: &mut Tracer) {
    let cl = &mut b.cl;
    let dev = device();
    // Host h attaches to leaf h % LEAVES: storm clients, storm servers,
    // victim clients, victim servers.
    tr.span("Cluster::add_host", || {
        for role in [
            "storm-client",
            "storm-server",
            "victim-client",
            "victim-server",
        ] {
            for j in 0..LEAVES {
                cl.add_host(&format!("{role}{j}"), dev.clone());
            }
        }
    });
    let storm_span = (size.storm_qps * size.storm_reads) as u64 * u64::from(STORM_LEN);
    let victim_span = (size.victim_ops as u64 * u64::from(VICTIM_LEN)).next_multiple_of(4096);
    for j in 0..LEAVES {
        let next = (j + 1) % LEAVES;
        let (sc, ss) = (HostId(j), HostId(LEAVES + next));
        let (vc, vs) = (HostId(2 * LEAVES + j), HostId(3 * LEAVES + next));
        let mut rng = SplitMix64::new(seed ^ ((j as u64) << 20));

        // Storm pair.
        let remote = tr.span("Cluster::alloc_mr", || {
            cl.alloc_mr(ss, storm_span, MrMode::Pinned)
        });
        let local = tr.span("Cluster::alloc_mr", || {
            cl.alloc_mr(sc, storm_span, MrMode::Odp)
        });
        let bytes = pattern(seed, ss, 0, storm_span);
        tr.span("Cluster::mem_write", || {
            cl.mem_write(ss, remote.base, &bytes)
        });
        let cfg = QpConfig {
            cack: 6,
            recovery: if j % 2 == 0 {
                RecoveryKind::GoBackN
            } else {
                RecoveryKind::SelectiveRepeat
            },
            ..QpConfig::default()
        };
        let qps: Vec<Qpn> = (0..size.storm_qps)
            .map(|_| {
                tr.span("Cluster::connect_pair", || {
                    cl.connect_pair(&mut b.eng, sc, ss, cfg.clone()).0
                })
            })
            .collect();
        let chunks = storm_span / u64::from(STORM_LEN);
        for (q, &qpn) in qps.iter().enumerate() {
            for i in 0..size.storm_reads {
                let src_off = rng.next_below(chunks) * u64::from(STORM_LEN);
                let dst_off = (q * size.storm_reads + i) as u64 * u64::from(STORM_LEN);
                let wr = ReadWr::new((local.key, dst_off), (remote.key, src_off))
                    .len(STORM_LEN)
                    .id(i as u64);
                tr.span("Cluster::post", || cl.post(&mut b.eng, sc, qpn, wr));
                b.ops.push(Op {
                    host: sc,
                    qpn,
                    id: i as u64,
                    dst: sc,
                    dst_addr: local.base + dst_off,
                    src: ss,
                    src_off,
                    len: STORM_LEN,
                });
            }
        }

        // Victim pair: READs fetch the server's pattern, WRITEs push the
        // client's; each op lands in its own slot.
        let (v_src_s, v_dst_s, v_dst_c, v_src_c) = tr.span("Cluster::alloc_mr", || {
            (
                cl.alloc_mr(vs, victim_span, MrMode::Pinned),
                cl.alloc_mr(vs, victim_span, MrMode::Pinned),
                cl.alloc_mr(vc, victim_span, MrMode::Pinned),
                cl.alloc_mr(vc, victim_span, MrMode::Pinned),
            )
        });
        for (host, mr) in [(vs, v_src_s), (vc, v_src_c)] {
            let bytes = pattern(seed, host, 0, victim_span);
            tr.span("Cluster::mem_write", || cl.mem_write(host, mr.base, &bytes));
        }
        let qpn = tr.span("Cluster::connect_pair", || {
            cl.connect_pair(&mut b.eng, vc, vs, QpConfig::default()).0
        });
        tr.span("Cluster::capture_enable", || cl.capture_enable(vc));
        b.lint.push(vc);
        // Storm hosts stay uncaptured: their 2 KiB responses would make
        // the capture hundreds of MiB per round.
        if replay {
            b.replay.push(vc);
        }
        let slots = victim_span / u64::from(VICTIM_LEN);
        for k in 0..size.victim_ops {
            let jitter = rng.next_below(VICTIM_INTERVAL_NS / 2);
            let src_off = rng.next_below(slots) * u64::from(VICTIM_LEN);
            let slot = k as u64 * u64::from(VICTIM_LEN);
            let read = k % 2 == 0;
            let op = if read {
                Op {
                    host: vc,
                    qpn,
                    id: k as u64,
                    dst: vc,
                    dst_addr: v_dst_c.base + slot,
                    src: vs,
                    src_off,
                    len: VICTIM_LEN,
                }
            } else {
                Op {
                    host: vc,
                    qpn,
                    id: k as u64,
                    dst: vs,
                    dst_addr: v_dst_s.base + slot,
                    src: vc,
                    src_off,
                    len: VICTIM_LEN,
                }
            };
            let (src_key, dst_key) = if read {
                (v_src_s.key, v_dst_c.key)
            } else {
                (v_src_c.key, v_dst_s.key)
            };
            let at = SimTime::from_ns(VICTIM_START_NS + k as u64 * VICTIM_INTERVAL_NS + jitter);
            b.eng.schedule_at(at, move |c: &mut Cluster, eng| {
                if read {
                    let wr = ReadWr::new((dst_key, slot), (src_key, src_off));
                    c.post(eng, vc, qpn, wr.len(VICTIM_LEN).id(k as u64));
                } else {
                    let wr = WriteWr::new((src_key, src_off), (dst_key, slot));
                    c.post(eng, vc, qpn, wr.len(VICTIM_LEN).id(k as u64));
                }
            });
            b.ops.push(op);
        }
    }
}

/// Per-layer counts of one round (or the sum of several). Peaks are
/// maxima.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub executed: u64,
    pub scheduled: u64,
    pub cancelled: u64,
    pub replaced: u64,
    pub dead_pops: u64,
    pub peak_depth: u64,
    pub frames: u64,
    pub drops: u64,
    pub ecn_marks: u64,
    pub link_peak_backlog_ns: u64,
    pub packets: u64,
    pub retransmits: u64,
    pub ghosts: u64,
    pub timeouts: u64,
    pub responses_discarded: u64,
    pub faults_resolved: u64,
    pub qp_resumes: u64,
    pub irqs: u64,
    pub driver_busy_ns: u64,
    pub jsonl_bytes: u64,
    pub findings: u64,
}

impl Counts {
    /// Adds `o` in: sums, except peaks, which take the maximum.
    pub fn add(&mut self, o: &Counts) {
        self.executed += o.executed;
        self.scheduled += o.scheduled;
        self.cancelled += o.cancelled;
        self.replaced += o.replaced;
        self.dead_pops += o.dead_pops;
        self.peak_depth = self.peak_depth.max(o.peak_depth);
        self.frames += o.frames;
        self.drops += o.drops;
        self.ecn_marks += o.ecn_marks;
        self.link_peak_backlog_ns = self.link_peak_backlog_ns.max(o.link_peak_backlog_ns);
        self.packets += o.packets;
        self.retransmits += o.retransmits;
        self.ghosts += o.ghosts;
        self.timeouts += o.timeouts;
        self.responses_discarded += o.responses_discarded;
        self.faults_resolved += o.faults_resolved;
        self.qp_resumes += o.qp_resumes;
        self.irqs += o.irqs;
        self.driver_busy_ns += o.driver_busy_ns;
        self.jsonl_bytes += o.jsonl_bytes;
        self.findings += o.findings;
    }

    fn set_queue(&mut self, qs: &QueueStats) {
        self.executed = qs.executed;
        self.scheduled = qs.scheduled;
        self.cancelled = qs.cancelled;
        self.replaced = qs.replaced;
        self.dead_pops = qs.dead_pops;
        self.peak_depth = qs.peak_depth as u64;
    }

    /// Fabric, packet and per-host counters of the hosts this cluster
    /// (or replica) owns.
    fn from_cluster(cl: &Cluster) -> Counts {
        let mut c = Counts {
            frames: cl.fabric.total_frames(),
            drops: cl.fabric.total_drops(),
            ecn_marks: cl.fabric.total_ecn_marks(),
            packets: cl.stats.total_packets,
            retransmits: cl.stats.retransmit_packets,
            ghosts: cl.stats.ghost_packets,
            ..Counts::default()
        };
        for (_, _, link) in cl.fabric.inter_links() {
            c.link_peak_backlog_ns = c.link_peak_backlog_ns.max(link.peak_backlog_ns);
        }
        for h in (0..cl.host_count()).map(HostId).filter(|&h| cl.owns(h)) {
            let q = cl.qp_stats_sum(h);
            c.timeouts += q.timeouts;
            c.responses_discarded += q.responses_discarded;
            let d = cl.driver_stats(h);
            c.faults_resolved += d.faults_resolved;
            c.qp_resumes += d.qp_resumes;
            c.irqs += d.irqs_processed;
            c.driver_busy_ns += d.busy.as_ns();
        }
        c
    }

    /// The simulated outcome a pure speed-up must leave unchanged.
    fn digest(&self, end: SimTime, jsonl: &str) -> u64 {
        let text = format!(
            "end={} executed={} packets={} retransmits={} faults={} resumes={} irqs={} busy={} jsonl={:016x}",
            end.as_ns(),
            self.executed,
            self.packets,
            self.retransmits,
            self.faults_resolved,
            self.qp_resumes,
            self.irqs,
            self.driver_busy_ns,
            fnv1a(jsonl.as_bytes()),
        );
        fnv1a(text.as_bytes())
    }
}

/// One frame of a captured Tx stream, as submitted to `Fabric::transit`.
#[derive(Debug, Clone, Copy)]
pub struct Tx {
    pub at: SimTime,
    pub src: Lid,
    pub dst: Lid,
    pub bytes: u32,
}

/// Frames the captured `hosts` handed to the fabric (ghost packets never
/// reach it).
fn tx_stream(cl: &Cluster, hosts: &[HostId]) -> Vec<Tx> {
    let overhead = device().send_overhead;
    let mut out = Vec::new();
    for &h in hosts {
        for r in cl.capture(h).iter() {
            if r.direction == Direction::Tx && !r.payload.ghost {
                out.push(Tx {
                    at: r.time + overhead,
                    src: r.src,
                    dst: r.dst,
                    bytes: r.bytes,
                });
            }
        }
    }
    out
}

/// Timers of a sharded round.
#[derive(Debug, Clone, Copy, Default)]
pub struct PdesTimes {
    /// From the `run_sharded` call until the slowest replica is built.
    pub build_s: f64,
    /// The slowest `finish` closure.
    pub finish_s: f64,
    /// `merge_shard_telemetry`.
    pub merge_s: f64,
    /// `run_sharded` wall time minus build and finish.
    pub epoch_s: f64,
}

/// What one round measured and checked.
#[derive(Debug, Clone, Default)]
pub struct RoundOut {
    pub setup_s: f64,
    pub run_s: f64,
    pub report_s: f64,
    /// Dropping the cluster (sharded: the slowest replica's drop, inside
    /// its `finish` closure); part of `wall_s`, not of `report_s`.
    pub teardown_s: f64,
    pub allocs_setup: u64,
    pub allocs_run: u64,
    pub allocs_report: u64,
    /// Allocations inside telemetry sync, merge and export.
    pub allocs_telemetry: u64,
    pub ops: u64,
    pub ops_failed: u64,
    pub digest: u64,
    pub counts: Counts,
    /// Engine queue counts the queue replay reproduces.
    pub queue: QueueStats,
    /// Captured Tx stream (traced rounds).
    pub tx: Vec<Tx>,
    pub hosts: usize,
    pub pdes: PdesTimes,
}

impl RoundOut {
    pub fn wall_s(&self) -> f64 {
        self.setup_s + self.run_s + self.report_s + self.teardown_s
    }
}

/// Drains the CQs of every requester in `ops` and checks each WR
/// completed exactly once, successfully, leaving the expected bytes.
/// Returns the number of failed WRs (a completion matching no WR counts
/// as one more).
fn verify(cl: &mut Cluster, ops: &mut [Op], seed: u64, tr: &mut Tracer) -> u64 {
    ops.sort_unstable_by_key(|o| (o.host.0, o.qpn.0, o.id));
    let mut done = vec![0u32; ops.len()];
    let mut failed = 0;
    let mut hosts: Vec<HostId> = ops.iter().map(|o| o.host).collect();
    hosts.dedup();
    for h in hosts {
        let wcs = tr.span("Cluster::poll_cq", || cl.poll_cq(h));
        for wc in wcs {
            match ops
                .binary_search_by_key(&(h.0, wc.qpn.0, wc.wr_id.0), |o| (o.host.0, o.qpn.0, o.id))
            {
                Ok(i) if wc.status == WcStatus::Success => done[i] += 1,
                _ => failed += 1,
            }
        }
    }
    for (op, n) in ops.iter().zip(done) {
        let got = tr.span("Cluster::mem_read", || {
            cl.mem_read(op.dst, op.dst_addr, op.len as usize)
        });
        if n != 1 || got != pattern(seed, op.src, op.src_off, u64::from(op.len)) {
            failed += 1;
        }
    }
    failed
}

/// Lints the captures of `hosts`; returns the findings.
fn lint(cl: &Cluster, hosts: &[HostId], tr: &mut Tracer) -> u64 {
    let cfg = LintConfig::default();
    hosts
        .iter()
        .map(|&h| {
            tr.span("lint_capture", || lint_capture(cl.capture(h), &cfg))
                .findings
                .len() as u64
        })
        .sum()
}

/// Runs one round on the sequential engine. A traced round (`tr` on)
/// drives `Engine::step`, timing each call into `steps`, and keeps the
/// captured Tx stream for the transit replay.
pub fn seq_round(
    w: Workload,
    size: Size,
    seed: u64,
    tr: &mut Tracer,
    steps: &mut StepHist,
) -> RoundOut {
    let traced = tr.is_on();
    let round = tr.enter("round");
    let (a0, t0) = (alloc::total(), Instant::now());
    let setup = tr.enter("setup");
    let mut b = build(w, size, seed, None, traced, tr);
    tr.exit(setup);
    let (a1, t1) = (alloc::total(), Instant::now());

    let run = tr.enter("Engine::run");
    if traced {
        let mut last = Instant::now();
        while b.eng.step(&mut b.cl) {
            let now = Instant::now();
            steps.add(now - last);
            last = now;
        }
    } else {
        b.eng.run(&mut b.cl);
    }
    tr.exit(run);
    let (a2, t2) = (alloc::total(), Instant::now());

    let report = tr.enter("report");
    let at = alloc::total();
    tr.span("Cluster::sync_telemetry", || b.cl.sync_telemetry(&b.eng));
    // A sharded merge cannot derive the peak depth and drops the gauge;
    // dropping it here too keeps the two exports comparable.
    b.cl.telemetry_mut()
        .remove_metric("event.peak_depth", Labels::NONE);
    let jsonl = tr.span("export_jsonl", || export_jsonl(b.cl.telemetry()));
    let allocs_telemetry = alloc::total() - at;
    let ops = b.ops.len() as u64;
    let verifying = tr.enter("verify");
    let ops_failed = verify(&mut b.cl, &mut b.ops, seed, tr);
    tr.exit(verifying);
    let findings = lint(&b.cl, &b.lint, tr);
    let queue = b.eng.queue_stats();
    let mut counts = Counts::from_cluster(&b.cl);
    counts.set_queue(&queue);
    counts.jsonl_bytes = jsonl.len() as u64;
    counts.findings = findings;
    let digest = counts.digest(b.eng.now(), &jsonl);
    let tx = tx_stream(&b.cl, &b.replay);
    let hosts = b.cl.host_count();
    tr.exit(report);
    let (a3, t3) = (alloc::total(), Instant::now());
    tr.span("teardown", || drop((b, jsonl)));
    let t4 = Instant::now();
    tr.exit(round);

    RoundOut {
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        report_s: (t3 - t2).as_secs_f64(),
        teardown_s: (t4 - t3).as_secs_f64(),
        allocs_setup: a1 - a0,
        allocs_run: a2 - a1,
        allocs_report: a3 - a2,
        allocs_telemetry,
        ops,
        ops_failed,
        digest,
        counts,
        queue,
        tx,
        hosts,
        pdes: PdesTimes::default(),
    }
}

/// A closure's start, end and allocations on its thread.
#[derive(Debug, Clone, Copy)]
struct Mark {
    start: Instant,
    end: Instant,
    allocs: u64,
}

fn marked<T>(f: impl FnOnce() -> T) -> (T, Mark) {
    let (start, a) = (Instant::now(), alloc::this_thread());
    let out = f();
    let mark = Mark {
        start,
        end: Instant::now(),
        allocs: alloc::this_thread() - a,
    };
    (out, mark)
}

/// What a shard's `finish` closure hands back.
struct ShardOut {
    telemetry: ibsim_verbs::Telemetry,
    queue: QueueStats,
    globals: (u64, u64),
    end: SimTime,
    counts: Counts,
    ops: u64,
    ops_failed: u64,
    tx: Vec<Tx>,
    /// Allocations inside `sync_telemetry_at`.
    sync_allocs: u64,
    /// The shard's build and finish spans.
    tracer: Tracer,
    /// Dropping the replica.
    teardown: Duration,
    /// The build and finish closures.
    build: Mark,
    finish: Mark,
}

/// The pair-aligned owner map: client and server of a flood pair share
/// a shard, so no link crosses shards.
fn flood_owner(size: Size, shards: usize) -> Vec<usize> {
    let pairs = size.flood_pairs;
    (0..2 * pairs).map(|h| (h / 2) * shards / pairs).collect()
}

/// Runs one flood round on `shards` PDES shards. Setup is the replica
/// builds inside `run_sharded`, report starts when the first shard
/// enters its `finish` closure.
pub fn pdes_round(size: Size, seed: u64, shards: usize, tr: &mut Tracer) -> RoundOut {
    let w = Workload::Flood;
    let traced = tr.is_on();
    let round = tr.enter("round");
    let (a0, t0) = (alloc::total(), Instant::now());
    let plan = ShardPlan::new(shards, flood_owner(size, shards));
    // What a shard's build hands to its finish: the WRs it posted, the
    // hosts to lint and replay, its spans, and the build's mark.
    type Payload = (Vec<Op>, Vec<HostId>, Vec<HostId>, Tracer, Mark);
    let payloads: Mutex<Vec<Option<Payload>>> = Mutex::new((0..shards).map(|_| None).collect());

    let sharded = tr.enter("run_sharded");
    let mut outs: Vec<ShardOut> = run_sharded(
        &plan,
        None,
        |id| {
            let mut t = Tracer::new(traced);
            let (b, mark) = marked(|| {
                let s = t.enter("build");
                let b = build(w, size, seed, Some((id, &plan.owner)), traced, &mut t);
                t.exit(s);
                b
            });
            payloads
                .lock()
                .expect("invariant: no shard panicked holding the lock")[id] =
                Some((b.ops, b.lint, b.replay, t, mark));
            (b.eng, b.cl)
        },
        |id, eng, mut cl, end| {
            let (started, allocs) = (Instant::now(), alloc::this_thread());
            let (mut ops, lint_hosts, replay, mut t, build) = payloads
                .lock()
                .expect("invariant: no shard panicked holding the lock")[id]
                .take()
                .expect("invariant: every shard built before finishing");
            let s = t.enter("finish");
            let a = alloc::this_thread();
            t.span("Cluster::sync_telemetry_at", || {
                cl.sync_telemetry_at(&eng, end)
            });
            let sync_allocs = alloc::this_thread() - a;
            let verifying = t.enter("verify");
            let ops_failed = verify(&mut cl, &mut ops, seed, &mut t);
            t.exit(verifying);
            let mut counts = Counts::from_cluster(&cl);
            counts.findings = lint(&cl, &lint_hosts, &mut t);
            let telemetry = std::mem::take(cl.telemetry_mut());
            let (queue, globals) = (eng.queue_stats(), cl.shard_global_counters());
            let tx = tx_stream(&cl, &replay);
            let dropped = Instant::now();
            t.span("teardown", || drop((eng, cl)));
            let teardown = dropped.elapsed();
            t.exit(s);
            ShardOut {
                telemetry,
                queue,
                globals,
                end,
                counts,
                ops: ops.len() as u64,
                ops_failed,
                tx,
                sync_allocs,
                tracer: t,
                teardown,
                build,
                finish: Mark {
                    start: started,
                    end: Instant::now(),
                    allocs: alloc::this_thread() - allocs,
                },
            }
        },
    );
    let t_ret = Instant::now();
    let build_marks: Vec<Mark> = outs.iter().map(|o| o.build).collect();
    let finish_marks: Vec<Mark> = outs.iter().map(|o| o.finish).collect();
    for (i, o) in outs.iter_mut().enumerate() {
        tr.absorb(std::mem::replace(&mut o.tracer, Tracer::new(false)), 1 + i);
    }
    tr.exit(sharded);

    let at = alloc::total();
    let hubs: Vec<ibsim_verbs::Telemetry> = outs
        .iter_mut()
        .map(|o| std::mem::take(&mut o.telemetry))
        .collect();
    let qss: Vec<QueueStats> = outs.iter().map(|o| o.queue).collect();
    let (globals, end) = (outs[0].globals, outs[0].end);
    let ((hub, queue), merged) = marked(|| {
        tr.span("merge_shard_telemetry", || {
            merge_shard_telemetry(&hubs, &qss, globals.0, globals.1)
        })
    });
    drop(hubs);
    let jsonl = tr.span("export_jsonl", || export_jsonl(&hub));
    let allocs_telemetry = alloc::total() - at + outs.iter().map(|o| o.sync_allocs).sum::<u64>();
    let replica_teardown = outs.iter().map(|o| o.teardown).max().unwrap_or_default();
    let mut counts = Counts::default();
    let (mut ops, mut ops_failed, mut tx) = (0, 0, Vec::new());
    for o in outs {
        counts.add(&o.counts);
        ops += o.ops;
        ops_failed += o.ops_failed;
        tx.extend(o.tx);
        counts.peak_depth = counts.peak_depth.max(o.queue.peak_depth as u64);
    }
    counts.set_queue(&QueueStats {
        peak_depth: counts.peak_depth as usize,
        ..queue
    });
    counts.jsonl_bytes = jsonl.len() as u64;
    let digest = counts.digest(end, &jsonl);
    let hosts = 2 * size.flood_pairs;
    let (a3, t3) = (alloc::total(), Instant::now());
    tr.span("teardown", || drop((hub, jsonl)));
    let t4 = Instant::now();
    tr.exit(round);

    let setup_end = build_marks.iter().map(|m| m.end).max().unwrap_or(t0);
    let report_start = finish_marks.iter().map(|m| m.start).min().unwrap_or(t_ret);
    let longest = |ms: &[Mark]| {
        ms.iter()
            .map(|m| m.end - m.start)
            .max()
            .unwrap_or(Duration::ZERO)
    };
    let setup = setup_end - t0;
    let report = (t3 - report_start).saturating_sub(replica_teardown);
    let allocs_setup = build_marks.iter().map(|m| m.allocs).sum::<u64>();
    let allocs_report = finish_marks.iter().map(|m| m.allocs).sum::<u64>() + (a3 - at);
    let total = a3 - a0;
    let pdes = PdesTimes {
        build_s: setup.as_secs_f64(),
        finish_s: longest(&finish_marks).as_secs_f64(),
        merge_s: (merged.end - merged.start).as_secs_f64(),
        epoch_s: ((t_ret - t0).saturating_sub(setup + (t_ret - report_start))).as_secs_f64(),
    };
    RoundOut {
        setup_s: setup.as_secs_f64(),
        run_s: (report_start - setup_end).as_secs_f64(),
        report_s: report.as_secs_f64(),
        teardown_s: (replica_teardown + (t4 - t3)).as_secs_f64(),
        allocs_setup,
        allocs_run: total - allocs_setup - allocs_report,
        allocs_report,
        allocs_telemetry,
        ops,
        ops_failed,
        digest,
        counts,
        queue: QueueStats {
            peak_depth: counts.peak_depth as usize,
            ..queue
        },
        tx,
        hosts,
        pdes,
    }
}
