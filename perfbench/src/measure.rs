//! Latency samples, spans, the closed-loop client and the ladder replay.

use crate::rung::{class_of, Done, OpError, Rung, READ_CLASSES};
use bench::netload::{NetLoadOutcome, NetOp};
use common::{QueryContext, QueryStats};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// Nearest-rank percentile of unsorted samples, or an error when fewer
/// than ten samples lie beyond it (the tail is then not measured).
pub fn tail(samples: &[f64], q: f64) -> Result<f64, String> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    if sorted.len().saturating_sub(rank) < 10 {
        return Err(format!(
            "p{q} of {} samples has fewer than ten samples beyond it",
            sorted.len()
        ));
    }
    Ok(bench::netload::percentile(&sorted, q))
}

/// Median of unsorted samples (0.0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    bench::netload::percentile(&sorted, 50.0)
}

/// Latencies in microseconds per benchmark class.
#[derive(Default)]
pub struct Samples(pub BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, class: &'static str, us: f64) {
        self.0.entry(class).or_default().push(us);
    }

    pub fn of(&self, class: &str) -> &[f64] {
        self.0.get(class).map_or(&[], Vec::as_slice)
    }

    pub fn absorb(&mut self, other: Samples) {
        for (class, mut v) in other.0 {
            self.0.entry(class).or_default().append(&mut v);
        }
    }
}

/// One span: a layer call (or a whole op) of one request, named
/// `<layer>.<class>`.
pub struct Span {
    pub layer: &'static str,
    pub class: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

/// In-memory span store, written out once the run ends.
#[derive(Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Records a span and returns its id.
    pub fn record(
        &mut self,
        layer: &'static str,
        class: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            layer,
            class,
            request,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Appends another tracer's spans, keeping parent links intact.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes the spans as CSV (`id,request,parent,name,start_ns,end_ns`,
    /// times relative to `origin`; parent -1 = root).
    pub fn write_csv(&self, path: &std::path::Path, origin: Instant) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,request,parent,name,start_ns,end_ns")?;
        let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{id},{},{parent},{}.{},{},{}",
                s.request,
                s.layer,
                s.class,
                ns(s.start),
                ns(s.end)
            )?;
        }
        out.flush()
    }
}

/// What one closed-loop client observed.
#[derive(Default)]
pub struct LoopOutcome {
    /// Per net-class counts and latencies, the shape `reconcile_stats`
    /// compares against the server's counters.
    pub net: NetLoadOutcome,
    /// Latencies per benchmark class.
    pub lat: Samples,
    /// Ops sent.
    pub attempted: usize,
    /// Answers the check rejected.
    pub wrong: usize,
    /// Transport errors (the loop stops at the first one).
    pub conn_errors: Vec<String>,
    /// Index of the next op of the stream.
    pub next: usize,
    pub spans: Tracer,
}

impl LoopOutcome {
    /// Failed ops: wrong answers, sheds and transport errors.
    pub fn failed(&self) -> usize {
        self.wrong + self.net.shed + self.conn_errors.len()
    }

    /// Completed ops per second of wall time.
    pub fn throughput(&self) -> f64 {
        self.net.total() as f64 / self.net.wall.as_secs_f64().max(1e-9)
    }

    pub fn absorb(&mut self, other: LoopOutcome) {
        for (class, mut v) in other.net.latencies {
            self.net.latencies.entry(class).or_default().append(&mut v);
        }
        for (class, n) in other.net.shed_by_class {
            *self.net.shed_by_class.entry(class).or_default() += n;
        }
        self.net.shed += other.net.shed;
        self.net.ok += other.net.ok;
        self.net.wall = self.net.wall.max(other.net.wall);
        self.lat.absorb(other.lat);
        self.attempted += other.attempted;
        self.wrong += other.wrong;
        self.conn_errors.extend(other.conn_errors);
        self.spans.absorb(other.spans);
    }
}

/// Runs one closed-loop client: sends `ops[start..]` one at a time
/// (wrapping around when `cycle`), until `until` or the end of the stream.
/// `check(i, op, done)` judges each answer outside the timed call.  With
/// `trace = Some(layer)` every op records a root span and a `layer.class`
/// child span around the call, with request ids `request_base + i`.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    rung: &mut dyn Rung,
    ops: &[NetOp],
    start: usize,
    cycle: bool,
    until: Instant,
    trace: Option<&'static str>,
    request_base: u64,
    check: &mut dyn FnMut(usize, &NetOp, &Done) -> bool,
) -> LoopOutcome {
    let mut out = LoopOutcome::default();
    let mut cx = QueryContext::new();
    let began = Instant::now();
    let mut i = start;
    while Instant::now() < until && (cycle || i < ops.len()) {
        let op = &ops[i % ops.len()];
        let class = class_of(op);
        let op_start = Instant::now();
        out.attempted += 1;
        match rung.exec(op, &mut cx) {
            Ok(done) => {
                out.lat.push(class, done.us);
                out.net
                    .latencies
                    .entry(op.class())
                    .or_default()
                    .push(done.us);
                out.net.ok += 1;
                if !check(i, op, &done) {
                    out.wrong += 1;
                }
                if let Some(layer) = trace {
                    let request = request_base + i as u64;
                    let root =
                        out.spans
                            .record("bench", "op", request, None, op_start, Instant::now());
                    out.spans.record(
                        layer,
                        class,
                        request,
                        Some(root),
                        done.start,
                        done.start + Duration::from_secs_f64(done.us / 1e6),
                    );
                }
            }
            Err(OpError::Shed) => {
                out.net.shed += 1;
                *out.net.shed_by_class.entry(op.class()).or_default() += 1;
            }
            Err(OpError::Conn(e)) => {
                out.conn_errors.push(e);
                i += 1;
                break;
            }
        }
        i += 1;
    }
    out.net.wall = began.elapsed();
    out.next = i;
    out
}

/// Work counts of one class on the bare index.
#[derive(Default, Clone, PartialEq, Eq, Debug)]
pub struct ClassWork {
    pub ops: u64,
    pub stats: QueryStats,
    pub results: u64,
}

/// Work counts per read class (point, window, knn, range, join).
pub type Work = BTreeMap<&'static str, ClassWork>;

/// What a ladder replay measured.
#[derive(Default)]
pub struct LadderOutcome {
    /// Call latencies per rung, in rung order.
    pub lat: Vec<Samples>,
    /// Work counts of rung 0 over the first pass.
    pub work: Work,
    pub attempted: usize,
    pub wrong: usize,
    pub shed: usize,
    pub conn_errors: Vec<String>,
    pub spans: Tracer,
}

/// Replays `ops` `passes` times through every rung in turn, op by op: op
/// `i` runs on rung 0, then rung 1, and so on, so each op's rung calls sit
/// under one request span.  `check(rung, i, op, done)` judges each answer;
/// rung 0's `QueryStats` over the first pass become the work counts.
pub fn ladder(
    rungs: &mut [(&'static str, &mut dyn Rung)],
    ops: &[NetOp],
    passes: usize,
    until: Instant,
    check: &mut dyn FnMut(usize, usize, &NetOp, &Done) -> bool,
) -> Result<LadderOutcome, String> {
    let mut out = LadderOutcome {
        lat: rungs.iter().map(|_| Samples::default()).collect(),
        ..Default::default()
    };
    for pass in 0..passes {
        for (i, op) in ops.iter().enumerate() {
            if Instant::now() >= until {
                return Err(format!("ladder replay passed its deadline at op {i}"));
            }
            let class = class_of(op);
            // Clear of the closed loops' request ids (stream indices).
            let request = (1 << 48) + (pass * ops.len() + i) as u64;
            let root_start = Instant::now();
            let root = out
                .spans
                .record("ladder", "op", request, None, root_start, root_start);
            for (r, (layer, rung)) in rungs.iter_mut().enumerate() {
                let mut cx = QueryContext::new();
                out.attempted += 1;
                match rung.exec(op, &mut cx) {
                    Ok(done) => {
                        out.lat[r].push(class, done.us);
                        if !check(r, i, op, &done) {
                            out.wrong += 1;
                        }
                        if r == 0 && pass == 0 && READ_CLASSES.contains(&class) {
                            let w = out.work.entry(class).or_default();
                            w.ops += 1;
                            w.stats += cx.stats;
                            w.results += done.answer.results() as u64;
                        }
                        out.spans.record(
                            layer,
                            class,
                            request,
                            Some(root),
                            done.start,
                            done.start + Duration::from_secs_f64(done.us / 1e6),
                        );
                    }
                    Err(OpError::Shed) => out.shed += 1,
                    Err(OpError::Conn(e)) => {
                        out.conn_errors.push(e);
                        return Ok(out);
                    }
                }
            }
            out.spans.spans[root].end = Instant::now();
        }
    }
    Ok(out)
}

/// Work counts of one pass of the read ops of `ops` through `rung`, with a
/// fresh context per op.
pub fn count_work(rung: &mut dyn Rung, ops: &[NetOp]) -> Result<Work, String> {
    let mut work = Work::new();
    for op in ops {
        let class = class_of(op);
        if !READ_CLASSES.contains(&class) {
            continue;
        }
        let mut cx = QueryContext::new();
        let done = rung
            .exec(op, &mut cx)
            .map_err(|e| format!("counting pass: {e:?}"))?;
        let w = work.entry(class).or_default();
        w.ops += 1;
        w.stats += cx.stats;
        w.results += done.answer.results() as u64;
    }
    Ok(work)
}
