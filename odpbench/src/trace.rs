//! Outside-in tracing: spans around the benchmark's own calls into the
//! simulator, a per-step latency histogram, and a Chrome trace-event
//! writer.
//!
//! Spans live in memory and are written once, at exit. Consecutive calls
//! of the same name under the same parent fold into one span with a call
//! count, so a loop of 128 `connect_pair` calls is one span rather than
//! 128; its duration includes the loop's own few instructions per call.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. `tid` 0 is the main thread; shard threads of a
/// sharded run are `1 + shard`.
#[derive(Debug, Clone)]
pub struct Span {
    /// The call or phase the span covers.
    pub name: &'static str,
    /// Thread lane.
    pub tid: usize,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Calls folded into this span.
    pub calls: u64,
}

/// Span recorder. A disabled tracer runs the wrapped calls and records
/// nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = self.enter(name);
        let out = f();
        self.exit(idx);
        out
    }

    /// Opens a span called `name`; pair with [`Tracer::exit`]. Returns
    /// `usize::MAX` when off.
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let now = self.origin.elapsed();
        let parent = self.open.last().copied();
        let last = self.spans.len().checked_sub(1);
        let idx = match last {
            // The previous span is a closed sibling of the same name.
            Some(i)
                if self.spans[i].name == name
                    && self.spans[i].parent == parent
                    && !self.open.contains(&i) =>
            {
                self.spans[i].calls += 1;
                i
            }
            _ => {
                self.spans.push(Span {
                    name,
                    tid: 0,
                    start: now,
                    end: now,
                    parent,
                    calls: 1,
                });
                self.spans.len() - 1
            }
        };
        self.open.push(idx);
        idx
    }

    /// Closes the span [`Tracer::enter`] opened.
    pub fn exit(&mut self, idx: usize) {
        if !self.on {
            return;
        }
        self.spans[idx].end = self.origin.elapsed();
        self.open.pop();
    }

    /// Moves another thread's spans in, on lane `tid`, under the
    /// innermost open span.
    pub fn absorb(&mut self, other: Tracer, tid: usize) {
        if !self.on {
            return;
        }
        let base = self.spans.len();
        let parent = self.open.last().copied();
        let shift = |d: Duration| (other.origin + d).saturating_duration_since(self.origin);
        for s in other.spans {
            self.spans.push(Span {
                tid,
                start: shift(s.start),
                end: shift(s.end),
                parent: s.parent.map(|p| base + p).or(parent),
                ..s
            });
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals of self time (a span's duration minus the time its
    /// same-thread children cover), total time and calls, in first-seen
    /// order.
    pub fn rollup(&self) -> Vec<Rollup> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                if self.spans[p].tid == s.tid {
                    child[p] += s.end - s.start;
                }
            }
        }
        let mut out: Vec<Rollup> = Vec::new();
        for (s, c) in self.spans.iter().zip(child) {
            let total = s.end - s.start;
            let entry = match out.iter().position(|r| r.name == s.name) {
                Some(i) => &mut out[i],
                None => {
                    out.push(Rollup {
                        name: s.name,
                        self_time: Duration::ZERO,
                        total: Duration::ZERO,
                        calls: 0,
                    });
                    out.last_mut().expect("invariant: just pushed")
                }
            };
            entry.self_time += total.saturating_sub(c);
            entry.total += total;
            entry.calls += s.calls;
        }
        out
    }

    /// The spans as Chrome trace-event JSON (open in `chrome://tracing`
    /// or Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"calls\":{}}}}}{sep}",
                s.name,
                s.tid,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                s.calls,
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time, total time and call count of every span of one name.
#[derive(Debug, Clone, Copy)]
pub struct Rollup {
    /// Span name.
    pub name: &'static str,
    /// Summed self time.
    pub self_time: Duration,
    /// Summed duration.
    pub total: Duration,
    /// Summed calls.
    pub calls: u64,
}

/// Log-linear histogram of nanosecond durations: 16 sub-buckets per
/// power of two, so a quantile read from it is within 1/16 of the true
/// value. Fixed size, so recording allocates nothing.
pub struct StepHist {
    buckets: [u64; 64 * 16],
    count: u64,
}

impl Default for StepHist {
    fn default() -> Self {
        StepHist {
            buckets: [0; 64 * 16],
            count: 0,
        }
    }
}

impl StepHist {
    fn bucket(ns: u64) -> usize {
        if ns < 16 {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros() as usize;
        let sub = ((ns >> (msb - 4)) & 15) as usize;
        (msb - 3) * 16 + sub
    }

    /// Lower bound of a bucket.
    fn lower(b: usize) -> u64 {
        if b < 16 {
            return b as u64;
        }
        let (msb, sub) = (b / 16 + 3, (b % 16) as u64);
        (1u64 << msb) | (sub << (msb - 4))
    }

    /// Records one duration.
    pub fn add(&mut self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[Self::bucket(ns)] += 1;
        self.count += 1;
    }

    /// The `q`-quantile (0 < q ≤ 1), as the lower bound of its bucket;
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if n > 0 && seen >= target {
                return Self::lower(b);
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut prev = 0;
        for ns in [0u64, 1, 15, 16, 17, 31, 32, 100, 1000, 123_456, 1 << 40] {
            let b = StepHist::bucket(ns);
            assert!(b >= prev, "{ns}");
            prev = b;
            let lo = StepHist::lower(b);
            assert!(lo <= ns && ns - lo <= ns / 16, "{ns} -> {lo}");
        }
    }

    #[test]
    fn quantiles_read_the_right_bucket() {
        let mut h = StepHist::default();
        for ns in 1..=100u64 {
            h.add(Duration::from_nanos(ns * 100));
        }
        let p50 = h.quantile(0.5);
        assert!((4700..=5000).contains(&p50), "{p50}");
        assert!(h.quantile(0.99) >= 9300);
    }

    #[test]
    fn consecutive_calls_fold_and_self_time_excludes_children() {
        let mut outer = Tracer::new(true);
        let idx = outer.enter("round");
        for _ in 0..3 {
            outer.span("post", || std::thread::sleep(Duration::from_millis(1)));
        }
        outer.exit(idx);
        assert_eq!(outer.spans().len(), 2);
        assert_eq!(outer.spans()[1].calls, 3);
        let r = outer.rollup();
        let round = r.iter().find(|r| r.name == "round").expect("round");
        let post = r.iter().find(|r| r.name == "post").expect("post");
        assert!(post.total >= Duration::from_millis(3));
        assert!(round.self_time < round.total - Duration::from_millis(2));
        assert!(outer.chrome_json().contains("\"calls\":3"));
    }
}
