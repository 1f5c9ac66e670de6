//! `odpbench`: the repository benchmark.
//!
//! One process runs one workload for a fixed number of seeded rounds and
//! prints every metric by name and unit, ending with one JSON line. With
//! `--trace 0` it prints the end-to-end metrics of untraced rounds, after
//! one unmeasured warm-up round; with `--trace 1` it runs a third as many
//! rounds, each untraced and then traced (a `flood` round also through
//! the sharded PDES executor), and prints the per-layer metrics, the
//! traced run's own overhead, a self-time rollup, and a Chrome trace
//! file. See `odpbench/README.md`.

pub mod alloc;
pub mod replay;
pub mod trace;
pub mod workload;

use std::fmt::Write as _;
use std::time::Duration;

use ibsim_odp::hash::fnv1a;

use trace::{Rollup, StepHist, Tracer};
use workload::{pdes_round, seq_round, RoundOut, Size, Workload};

/// PDES shards of a traced `flood` run's sharded rounds: one per vCPU of
/// the 2-vCPU reference host.
pub const PDES_SHARDS: usize = 2;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Rounds of [`Size::TINY`] (the benchmark's own tests).
    pub tiny: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>
    /// [--tiny]`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
            (None, 0, 10, false, false);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            if flag == "--tiny" {
                tiny = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value:?}: {e}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?.clamp(1, 3600),
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            tiny,
        })
    }

    fn size(&self) -> Size {
        if self.tiny {
            Size::TINY
        } else {
            Size::FULL
        }
    }
}

/// One printed metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run prints.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over every round's simulated outcome; ungated.
    pub sim_digest: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON line.
    pub notes: Vec<String>,
    /// Chrome trace-event JSON of a traced run.
    pub chrome_trace: Option<String>,
}

impl Outcome {
    /// The final JSON line.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// Peak resident set (VmHWM) in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn fold_digest(digests: &[u64]) -> u64 {
    let text: String = digests.iter().map(|d| format!("{d:016x}")).collect();
    fnv1a(text.as_bytes())
}

/// Runs the workload as `args` asks.
pub fn run(args: &Args) -> Outcome {
    if args.trace {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}

fn untraced_round(w: Workload, size: Size, seed: u64) -> RoundOut {
    seq_round(
        w,
        size,
        seed,
        &mut Tracer::new(false),
        &mut StepHist::default(),
    )
}

fn run_untraced(args: &Args) -> Outcome {
    let (w, size) = (args.workload, args.size());
    let rounds = w.rounds(args.seconds);
    // The first round of a process runs on a cold heap and is the slowest
    // of the run; a warm-up repeat of it is verified but not timed.
    let warm = untraced_round(w, size, args.seed);
    let outs: Vec<RoundOut> = (0..rounds as u64)
        .map(|r| untraced_round(w, size, args.seed + r))
        .collect();
    let mut notes = vec![format!(
        "workload={} seed={} rounds={rounds} (+1 warm-up)",
        w.name(),
        args.seed
    )];
    notes.extend(outs.iter().enumerate().map(|(i, o)| {
        format!(
            "round {i}: setup {:.4} s, run {:.4} s, report {:.4} s, teardown {:.4} s",
            o.setup_s, o.run_s, o.report_s, o.teardown_s
        )
    }));
    let mut failed = warm.ops_failed + outs.iter().map(|o| o.ops_failed).sum::<u64>();
    if warm.digest != outs[0].digest {
        notes.push(format!(
            "MISMATCH: warm-up digest {:016x} != round 0 {:016x}",
            warm.digest, outs[0].digest
        ));
        failed += warm.ops;
    }
    // Phase times are summed over the interleaved rounds, so every phase
    // samples the same stretch of host time. Setup too: one round's setup
    // is short enough to fall inside a single host speed phase, so the
    // median round flips between the host's fast and slow modes.
    let sum = |f: fn(&RoundOut) -> f64| outs.iter().map(f).sum::<f64>();
    let allocs: u64 = outs
        .iter()
        .map(|o| o.allocs_setup + o.allocs_run + o.allocs_report)
        .sum();
    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        m("wall_s", sum(RoundOut::wall_s), "s"),
        m("setup_s", sum(|o| o.setup_s), "s"),
        m("run_s", sum(|o| o.run_s), "s"),
        m("report_s", sum(|o| o.report_s), "s"),
        m("peak_rss_mb", peak_rss_mib(), "MiB"),
        m("allocs", allocs as f64, "count"),
    ];
    Outcome {
        attempted: warm.ops + outs.iter().map(|o| o.ops).sum::<u64>(),
        failed,
        sim_digest: fold_digest(&outs.iter().map(|o| o.digest).collect::<Vec<_>>()),
        metrics,
        notes,
        chrome_trace: None,
    }
}

fn rolled(r: &[Rollup], names: &[&str]) -> (Duration, u64) {
    r.iter()
        .filter(|x| names.contains(&x.name))
        .fold((Duration::ZERO, 0), |(d, n), x| (d + x.total, n + x.calls))
}

fn run_traced(args: &Args) -> Outcome {
    let (w, size) = (args.workload, args.size());
    // A pair (untraced twin, step-timed round, replays) costs about three
    // untraced rounds, so a traced run lasts about as long as an untraced
    // one; a `flood` round's sharded run adds about a third.
    let rounds = w.rounds(args.seconds).div_ceil(3);
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut steps = StepHist::default();
    let mut notes = vec![format!(
        "workload={} seed={} rounds={rounds} traced",
        w.name(),
        args.seed
    )];
    let (mut plain, mut traced, mut sharded) = (Vec::new(), Vec::new(), Vec::new());
    let (mut queue_time, mut transit_time, mut replayed) = (Duration::ZERO, Duration::ZERO, 0u64);
    let mut failed = 0;
    for r in 0..rounds as u64 {
        let seed = args.seed + r;
        let u = seq_round(w, size, seed, &mut off, &mut StepHist::default());
        let mut t = seq_round(w, size, seed, &mut tr, &mut steps);
        if t.digest != u.digest {
            notes.push(format!("MISMATCH: tracing changed round {seed}'s digest"));
            failed += u.ops;
        }
        // The sharded executor must reproduce the sequential flood exactly.
        // It runs untraced: its `pdes.*` marks need no spans, and the other
        // per-layer metrics stay those of the sequential flood.
        if w == Workload::Flood {
            let p = pdes_round(size, seed, PDES_SHARDS, &mut off);
            if p.digest != u.digest {
                notes.push(format!(
                    "MISMATCH: round {seed} on {PDES_SHARDS} shards: digest {:016x} != sequential {:016x}",
                    p.digest, u.digest
                ));
                failed += p.ops;
            }
            failed += p.ops_failed;
            sharded.push(p);
        }
        queue_time += tr.span("replay.queue", || replay::queue(&t.queue, seed));
        replayed += t.tx.len() as u64;
        transit_time += tr.span("replay.transit", || replay::transit(w, t.hosts, &mut t.tx));
        t.tx = Vec::new();
        plain.push(u);
        traced.push(t);
    }
    failed += plain.iter().map(|o| o.ops_failed).sum::<u64>()
        + traced.iter().map(|o| o.ops_failed).sum::<u64>();
    if !sharded.is_empty() {
        let same = sharded
            .iter()
            .zip(&plain)
            .filter(|(p, u)| p.digest == u.digest);
        notes.push(format!(
            "sharded digests: {} of {} rounds on {PDES_SHARDS} shards match the sequential run",
            same.count(),
            sharded.len()
        ));
    }

    let mut c = workload::Counts::default();
    for o in &plain {
        c.add(&o.counts);
    }
    let executed = c.executed.max(1) as f64;
    let run_s: f64 = plain.iter().map(|o| o.run_s).sum();
    let run_ns = run_s * 1e9 / executed;
    let queue_ns = queue_time.as_secs_f64() * 1e9 / executed;
    let transit_ns = transit_time.as_secs_f64() * 1e9 / replayed.max(1) as f64;
    let roll = tr.rollup();
    let per_call_us = |name: &str| {
        let (d, n) = rolled(&roll, &[name]);
        d.as_secs_f64() * 1e6 / n.max(1) as f64
    };
    let secs = |names: &[&str]| rolled(&roll, names).0.as_secs_f64();
    let pdes = |f: fn(&RoundOut) -> f64| sharded.iter().map(f).sum::<f64>();
    let sum_u = |f: fn(&RoundOut) -> u64| plain.iter().map(f).sum::<u64>() as f64;
    let overhead = median(traced.iter().map(RoundOut::wall_s).collect())
        - median(plain.iter().map(RoundOut::wall_s).collect());
    let useful =
        c.packets.saturating_sub(c.retransmits + c.ghosts) as f64 / c.packets.max(1) as f64;
    let m = |name, value: f64, unit| Metric { name, value, unit };
    let metrics = vec![
        m("event.executed", c.executed as f64, "count"),
        m("event.scheduled", c.scheduled as f64, "count"),
        m("event.cancelled", c.cancelled as f64, "count"),
        m("event.replaced", c.replaced as f64, "count"),
        m("event.dead_pops", c.dead_pops as f64, "count"),
        m("event.peak_depth", c.peak_depth as f64, "count"),
        m("event.run_ns_per_event", run_ns, "ns"),
        m("event.queue_ns_per_event", queue_ns, "ns"),
        m("event.step_ns_p50", steps.quantile(0.5) as f64, "ns"),
        m("event.step_ns_p99", steps.quantile(0.99) as f64, "ns"),
        m(
            "event.allocs_per_event",
            sum_u(|o| o.allocs_run) / executed,
            "count",
        ),
        m("fabric.frames", c.frames as f64, "count"),
        m("fabric.drops", c.drops as f64, "count"),
        m("fabric.ecn_marks", c.ecn_marks as f64, "count"),
        m(
            "fabric.link_peak_backlog_ns",
            c.link_peak_backlog_ns as f64,
            "ns",
        ),
        m("fabric.transit_ns_per_frame", transit_ns, "ns"),
        m("verbs.packets", c.packets as f64, "count"),
        m("verbs.retransmits", c.retransmits as f64, "count"),
        m("verbs.ghost_packets", c.ghosts as f64, "count"),
        m("verbs.timeouts", c.timeouts as f64, "count"),
        m(
            "verbs.responses_discarded",
            c.responses_discarded as f64,
            "count",
        ),
        m("verbs.useful_packet_ratio", useful, "ratio"),
        m(
            "verbs.handler_ns_per_event",
            run_ns - queue_ns - transit_ns * c.frames as f64 / executed,
            "ns",
        ),
        m(
            "verbs.connect_us",
            per_call_us("Cluster::connect_pair"),
            "us",
        ),
        m("verbs.post_us", per_call_us("Cluster::post"), "us"),
        m("verbs.setup_allocs", sum_u(|o| o.allocs_setup), "count"),
        m("driver.faults_resolved", c.faults_resolved as f64, "count"),
        m("driver.qp_resumes", c.qp_resumes as f64, "count"),
        m("driver.irqs", c.irqs as f64, "count"),
        m("telemetry.sync_s", secs(&["Cluster::sync_telemetry"]), "s"),
        m("telemetry.export_s", secs(&["export_jsonl"]), "s"),
        m("telemetry.jsonl_mb", c.jsonl_bytes as f64 / 1e6, "MB"),
        m(
            "telemetry.report_allocs",
            sum_u(|o| o.allocs_telemetry),
            "count",
        ),
        m("pdes.build_s", pdes(|o| o.pdes.build_s), "s"),
        m("pdes.finish_s", pdes(|o| o.pdes.finish_s), "s"),
        m("pdes.merge_s", pdes(|o| o.pdes.merge_s), "s"),
        m("pdes.epoch_s", pdes(|o| o.pdes.epoch_s), "s"),
        m("analysis.lint_s", secs(&["lint_capture"]), "s"),
        m("analysis.findings", c.findings as f64, "count"),
        m("trace.overhead_s", overhead, "s"),
    ];
    notes.push(format!(
        "replays: {replayed} frames through Fabric::transit, {} events through the queue",
        c.executed
    ));
    notes.push("self-time rollup (traced rounds): name self_s total_s calls".into());
    for r in &roll {
        notes.push(format!(
            "  {:<28} {:>10.6} {:>10.6} {:>9}",
            r.name,
            r.self_time.as_secs_f64(),
            r.total.as_secs_f64(),
            r.calls
        ));
    }
    Outcome {
        attempted: plain.iter().map(|o| o.ops).sum(),
        failed,
        sim_digest: fold_digest(&plain.iter().map(|o| o.digest).collect::<Vec<_>>()),
        metrics,
        notes,
        chrome_trace: Some(tr.chrome_json()),
    }
}
