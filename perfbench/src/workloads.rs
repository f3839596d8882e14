//! The three workloads.  All share one data set (100k skewed points from
//! the run's seed) and one op generator (`bench::netload::net_workload`,
//! k = 25, r = 0.01, 8 probes per join).
//!
//! * `local-rsmi` — approximate RSMI, unsharded, called in-process by one
//!   thread with the read-only five-class stream.
//! * `serve-rw` — Sharded-RSMIa (2 shards) in a `SpatialServer` behind
//!   `net::serve_config`; one connection sends the seven-class mix with 10%
//!   writes.
//! * `route-read` — the same index, snapshotted and split into 2 shard
//!   servers behind `router::serve`; two connections send the read-only
//!   stream.
//!
//! The untraced run reports the end-to-end metrics.  The traced run sets
//! up once, runs the closed loop in alternating untraced and traced
//! segments (their throughput ratio is the tracing overhead), and replays
//! a fixed op list through every rung the workload passes (bare index,
//! `server::Snapshot`, direct net server, router) for the per-layer
//! metrics.

use crate::measure::{self, closed_loop, count_work, ladder, LoopOutcome, Work};
use crate::oracle;
use crate::report::Report;
use crate::rung::{BareRung, Done, NetRung, Rung, SnapshotRung, CLASSES, READ_CLASSES};
use bench::live::{self, JoinObs, LiveAnswer, LiveObs, RangeObs};
use bench::netload::{net_workload, NetOp};
use common::SpatialIndex;
use datagen::queries::MixedQuery;
use datagen::{generate, Distribution};
use geom::Point;
use net::NetHandle;
use registry::{BaseKind, IndexConfig, IndexKind, ServeConfig, SpatialServer};
use router::RouterHandle;
use server::{ServerConfig, WriteOp};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N_POINTS: usize = 100_000;
const K: usize = 25;
const RADIUS: f64 = 0.01;
/// Distinct ops per connection of the read-only workloads; the closed loop
/// cycles through them, each verified once against the oracle.
const DISTINCT_OPS: usize = 4_000;
/// Ops generated for `serve-rw` per measured second (about three times
/// what one connection completes on a 2-core machine).
const RW_OPS_PER_SECOND: usize = 12_000;
const RW_WRITE_RATIO: f64 = 0.10;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Passes of the ladder replay over the read-only op list.
const LADDER_PASSES: usize = 3;
/// Ops of the `serve-rw` ladder replay (one pass: writes do not repeat).
const RW_LADDER_OPS: usize = 12_000;
/// Insert ids start here, clear of the data set's `0..n`.
const INSERT_ID_BASE: u64 = 1 << 40;
/// Minimum compactions a `serve-rw` run must complete.
const MIN_COMPACTIONS: u64 = 3;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["local-rsmi", "serve-rw", "route-read"];

/// Run parameters.
pub struct Params {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Every phase must finish before this instant.
    pub deadline: Instant,
}

/// Runs one workload.  Errors name the failing phase; the caller names the
/// workload.
pub fn run(p: &Params, report: &mut Report) -> Result<(), String> {
    let threads_before = thread_count();
    let data = generate(Distribution::skewed_default(), N_POINTS, p.seed);
    match p.workload.as_str() {
        "local-rsmi" => local_rsmi(p, &data, report)?,
        "serve-rw" => serve_rw(p, &data, report)?,
        "route-read" => route_read(p, &data, report)?,
        other => return Err(format!("unknown workload '{other}'")),
    }
    if let (Some(before), Some(after)) = (threads_before, thread_count()) {
        if after > before {
            return Err(format!(
                "{} thread(s) left running after shutdown",
                after - before
            ));
        }
    }
    Ok(())
}

/// Threads of this process, from `/proc` (None where unavailable).
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
}

fn stream(data: &[Point], count: usize, write_ratio: f64, seed: u64) -> Vec<NetOp> {
    net_workload(data, count, K, RADIUS, write_ratio, seed, INSERT_ID_BASE)
}

fn sharded_kind() -> IndexKind {
    IndexKind::Sharded(BaseKind::Rsmia)
}

fn sharded_cfg() -> IndexConfig {
    IndexConfig::default().with_shards(2)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Verifies every read op of `ops` on `index` against the oracle and
/// returns each answer's fingerprint (the closed loop compares later
/// answers against it), plus recall counts over window and kNN.
fn prepass(
    index: &mut dyn SpatialIndex,
    data: &[Point],
    ops: &[NetOp],
    exact: bool,
    report: &mut Report,
) -> Result<(Vec<u64>, usize, usize), String> {
    let mut rung = BareRung { index, seq: 0 };
    let (mut found, mut expected) = (0, 0);
    let mut fps = Vec::with_capacity(ops.len());
    for op in ops {
        let done = rung
            .exec(op, &mut common::QueryContext::new())
            .map_err(|e| format!("oracle pass: {e:?}"))?;
        let truth = oracle::truth(data, op);
        let v = oracle::check(data, op, &done.answer, &truth, exact);
        report.attempted += 1;
        if !v.ok {
            report.wrong += 1;
            report.failed += 1;
            if report.wrong <= 5 {
                report.note(format!("wrong answer: {op:?} -> {:?}", done.answer));
            }
        }
        found += v.found;
        expected += v.expected;
        fps.push(done.answer.fingerprint());
    }
    Ok((fps, found, expected))
}

/// Adds a closed loop's counts to the report.
fn tally(report: &mut Report, out: &LoopOutcome) {
    report.attempted += out.attempted as u64;
    report.wrong += out.wrong as u64;
    report.failed += out.failed() as u64;
    for e in &out.conn_errors {
        report.problem(format!("connection error: {e}"));
    }
}

/// Sets the end-to-end metrics from the set-up times and the main loop.
/// The notes give each class's sample count, and its p99 where at least
/// ten samples lie beyond it.
fn end_to_end(
    report: &mut Report,
    setups: &[f64],
    main: &LoopOutcome,
    index_bytes: usize,
    recall: f64,
) -> Result<(), String> {
    report.set("setup_s", measure::median(setups));
    report.set("throughput_ops_s", main.throughput());
    for class in READ_CLASSES {
        let lat = main.lat.of(class);
        let p90 = measure::tail(lat, 90.0).map_err(|e| format!("{class}: {e}"))?;
        report.set(format!("{class}_p50_us"), measure::median(lat));
        report.set(format!("{class}_p90_us"), p90);
    }
    report.set("index_mb", index_bytes as f64 / 1e6);
    report.set("recall", recall);
    let lines: Vec<String> = CLASSES
        .iter()
        .filter_map(|class| {
            let lat = main.lat.of(class);
            (!lat.is_empty()).then(|| {
                let p99 = measure::tail(lat, 99.0).map_or_else(
                    |_| "n/a (fewer than ten samples beyond it)".to_string(),
                    |v| format!("{v:.1}us"),
                );
                format!(
                    "{class}: n={} p50={:.1}us p99={p99}",
                    lat.len(),
                    measure::median(lat)
                )
            })
        })
        .collect();
    report.note(format!("samples per class: {}", lines.join("; ")));
    Ok(())
}

/// Sets the core and engine metrics from rung-0 work counts.
fn set_work(report: &mut Report, work: &Work) {
    for class in READ_CLASSES {
        let w = work.get(class).cloned().unwrap_or_default();
        let per = |x: u64| x as f64 / w.ops.max(1) as f64;
        report.set(
            format!("core.{class}.blocks_per_op"),
            per(w.stats.blocks_touched),
        );
        report.set(
            format!("core.{class}.nodes_per_op"),
            per(w.stats.nodes_visited),
        );
        report.set(
            format!("core.{class}.candidates_per_op"),
            per(w.stats.candidates_scanned),
        );
        let useful = if w.stats.candidates_scanned == 0 {
            0.0
        } else {
            w.results as f64 / w.stats.candidates_scanned as f64
        };
        report.set(format!("core.{class}.useful_ratio"), useful);
        report.set(
            format!("engine.{class}.shards_visited_per_op"),
            per(w.stats.shards_visited),
        );
        report.set(
            format!("engine.{class}.shards_pruned_per_op"),
            per(w.stats.shards_pruned),
        );
    }
    let line: Vec<String> = work
        .iter()
        .map(|(c, w)| {
            format!(
                "{c}: ops={} blocks={} nodes={} candidates={} shards_visited={} shards_pruned={} results={}",
                w.ops,
                w.stats.blocks_touched,
                w.stats.nodes_visited,
                w.stats.candidates_scanned,
                w.stats.shards_visited,
                w.stats.shards_pruned,
                w.results
            )
        })
        .collect();
    report.note(format!(
        "work counts (bare index, one pass): {}",
        line.join("; ")
    ));
}

/// Sets `<layer>.<class>.us_p50` (and `us_p99` when `tails`) from one
/// rung's ladder latencies.
fn set_rung(
    report: &mut Report,
    layer: &str,
    lat: &measure::Samples,
    classes: &[&str],
    tails: bool,
) -> Result<(), String> {
    for class in classes {
        report.set(
            format!("{layer}.{class}.us_p50"),
            measure::median(lat.of(class)),
        );
        if tails {
            let p99 =
                measure::tail(lat.of(class), 99.0).map_err(|e| format!("{layer}.{class}: {e}"))?;
            report.set(format!("{layer}.{class}.us_p99"), p99);
        }
    }
    Ok(())
}

/// The closed loop of a traced run: four segments of a quarter of the
/// seconds each, alternating untraced and traced so drift in machine speed
/// falls on both.  Returns the segments merged and records
/// `bench.trace_overhead`.
fn traced_loops(
    report: &mut Report,
    p: &Params,
    run_loop: &mut dyn FnMut(Instant, Option<&'static str>) -> Result<LoopOutcome, String>,
    layer: &'static str,
) -> Result<LoopOutcome, String> {
    let quarter = Duration::from_secs_f64(p.seconds / 4.0);
    let mut all = LoopOutcome::default();
    // (ops, seconds) completed untraced and traced.
    let mut rate = [(0usize, 0f64); 2];
    for segment in 0..4 {
        let trace = (segment % 2 == 1).then_some(layer);
        let out = run_loop(Instant::now() + quarter, trace)?;
        rate[segment % 2].0 += out.net.total();
        rate[segment % 2].1 += out.net.wall.as_secs_f64();
        all.absorb(out);
    }
    let [plain, traced] = rate.map(|(ops, s)| ops as f64 / s.max(1e-9));
    report.set("bench.trace_overhead", traced / plain.max(1e-9));
    Ok(all)
}

// ---------------------------------------------------------------------
// local-rsmi
// ---------------------------------------------------------------------

fn local_rsmi(p: &Params, data: &[Point], report: &mut Report) -> Result<(), String> {
    let cfg = IndexConfig::default();
    let reps = if p.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut index = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let built = registry::build_index(IndexKind::Rsmi, data, &cfg);
        std::hint::black_box(built.point_query(&data[0], &mut common::QueryContext::new()));
        setups.push(secs(t0.elapsed()));
        index = Some(built);
    }
    let mut index = index.expect("at least one set-up");
    let ops = stream(data, DISTINCT_OPS, 0.0, p.seed ^ 0x10);
    let (fps, found, expected) = prepass(index.as_mut(), data, &ops, false, report)?;
    let recall = found as f64 / expected.max(1) as f64;
    let mut rung = BareRung {
        index: index.as_mut(),
        seq: 0,
    };
    let mut check =
        |i: usize, _: &NetOp, done: &Done| done.answer.fingerprint() == fps[i % fps.len()];

    if !p.trace {
        let until = Instant::now() + Duration::from_secs_f64(p.seconds);
        let main = closed_loop(&mut rung, &ops, 0, true, until, None, 0, &mut check);
        tally(report, &main);
        return end_to_end(report, &setups, &main, index.size_bytes(), recall);
    }

    let mut spans = measure::Tracer::default();
    let mut next = 0;
    let all = traced_loops(
        report,
        p,
        &mut |until, trace| {
            let out = closed_loop(&mut rung, &ops, next, true, until, trace, 0, &mut check);
            next = out.next;
            Ok::<_, String>(out)
        },
        "core",
    )?;
    tally(report, &all);
    spans.absorb(all.spans);

    let mut lad = ladder(
        &mut [("core", &mut rung as &mut dyn Rung)],
        &ops,
        LADDER_PASSES,
        p.deadline,
        &mut |_, i, _, done| done.answer.fingerprint() == fps[i],
    )?;
    ladder_tally(report, &lad);
    let again = count_work(&mut rung, &ops)?;
    work_self_check(report, &lad.work, &again);
    set_work(report, &lad.work);
    set_rung(report, "core", &lad.lat[0], &READ_CLASSES, false)?;
    report.set("setup.build_s", setups[0]);
    report.off_path(&["server.", "net.", "router.", "setup."]);
    spans.absorb(std::mem::take(&mut lad.spans));
    write_trace(p, &spans)
}

fn ladder_tally(report: &mut Report, lad: &measure::LadderOutcome) {
    report.attempted += lad.attempted as u64;
    report.wrong += lad.wrong as u64;
    report.failed += (lad.wrong + lad.shed + lad.conn_errors.len()) as u64;
    for e in &lad.conn_errors {
        report.problem(format!("ladder connection error: {e}"));
    }
}

/// Two passes over the same ops must count identical work.
fn work_self_check(report: &mut Report, first: &Work, second: &Work) {
    if first != second {
        report.problem(format!(
            "work counts differ between two passes over the same ops: {first:?} vs {second:?}"
        ));
    } else {
        report.note("work counts repeat exactly across two passes");
    }
}

fn write_trace(p: &Params, spans: &measure::Tracer) -> Result<(), String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(format!("trace-{}-seed{}.csv", p.workload, p.seed));
    let origin = spans
        .spans
        .iter()
        .map(|s| s.start)
        .min()
        .unwrap_or_else(Instant::now);
    spans
        .write_csv(&path, origin)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(())
}

// ---------------------------------------------------------------------
// Served stacks
// ---------------------------------------------------------------------

/// A `SpatialServer` behind a net listener.
struct Served {
    server: Arc<SpatialServer>,
    handle: NetHandle,
}

impl Served {
    fn start(
        index: Box<dyn SpatialIndex>,
        data: Vec<Point>,
        server_cfg: ServerConfig,
    ) -> Result<Self, String> {
        let rebuild = registry::rebuild_fn(sharded_kind(), &sharded_cfg());
        let server = Arc::new(SpatialServer::from_parts(index, data, rebuild, server_cfg));
        Self::listen(server)
    }

    fn listen(server: Arc<SpatialServer>) -> Result<Self, String> {
        let handle = net::serve_config(Arc::clone(&server), &ServeConfig::default())
            .map_err(|e| format!("net::serve_config: {e}"))?;
        Ok(Self { server, handle })
    }

    fn addr(&self) -> String {
        self.handle.local_addr().to_string()
    }

    /// Drains and joins the listener, then drops the server (joining its
    /// compactor).
    fn stop(self) {
        self.handle.shutdown();
        self.handle.join();
        drop(self.server);
    }
}

/// Connects and waits for the first answer to a point query.
fn first_answer(addr: &str, q: &Point) -> Result<NetRung, String> {
    let mut rung = NetRung::connect(addr)?;
    rung.client
        .point(q)
        .map_err(|e| format!("first request to {addr}: {e}"))?;
    Ok(rung)
}

fn scrape(rung: &mut NetRung, what: &str) -> Result<obs::MetricsSnapshot, String> {
    rung.client
        .stats()
        .map(|(_, m)| m)
        .map_err(|e| format!("STATS scrape of {what}: {e}"))
}

/// Requires the server's per-class request and shed counters to move by
/// exactly the client's counts.
fn reconcile(
    report: &mut Report,
    what: &str,
    before: &obs::MetricsSnapshot,
    after: &obs::MetricsSnapshot,
    outcomes: &[&LoopOutcome],
) {
    let nets: Vec<&bench::netload::NetLoadOutcome> = outcomes.iter().map(|o| &o.net).collect();
    let (_, bad) = bench::netload::reconcile_stats(before, after, &nets);
    if bad.is_empty() {
        report.note(format!("{what}: STATS deltas equal the client's counts"));
    }
    for b in bad {
        report.problem(format!("{what} STATS reconciliation: {b}"));
    }
}

/// Scraped compaction telemetry: swap pause p99 (us) and rebuild p99 (ms),
/// merged over `metrics`.
fn compaction_tails(report: &mut Report, metrics: &[obs::MetricsSnapshot]) {
    let merged = |names: &[&str]| {
        let mut h = obs::HistogramSnapshot::default();
        for m in metrics {
            for n in names {
                if let Some(x) = m.histogram(n) {
                    h.merge(x);
                }
            }
        }
        h
    };
    let pause = merged(&["server.compaction_pause_us"]);
    let rebuild = merged(&["server.compaction_rebuild_us", "server.partial_rebuild_us"]);
    report.set("server.swap_pause_us_p99", pause.percentile(99.0) as f64);
    report.set(
        "server.rebuild_ms_p99",
        rebuild.percentile(99.0) as f64 / 1e3,
    );
}

fn server_stats_delta(
    report: &mut Report,
    before: &[server::ServerStats],
    after: &[server::ServerStats],
) {
    let sum = |v: &[server::ServerStats], f: fn(&server::ServerStats) -> u64| {
        v.iter().map(f).sum::<u64>()
    };
    let d = |f: fn(&server::ServerStats) -> u64| (sum(after, f) - sum(before, f)) as f64;
    report.set("server.compactions", d(|s| s.compactions));
    report.set("server.partial_compactions", d(|s| s.partial_compactions));
    report.set("server.subtree_rebuilds", d(|s| s.subtree_rebuilds));
}

fn net_handle_stats(report: &mut Report, handles: &[&NetHandle]) {
    let (mut batched, mut batches, mut shed) = (0u64, 0u64, 0u64);
    for h in handles {
        let s = h.stats();
        batched += s.batched;
        batches += s.batches;
        shed += s.shed;
    }
    report.set("net.batch_fill", batched as f64 / batches.max(1) as f64);
    report.set("net.shed", shed as f64);
}

// ---------------------------------------------------------------------
// serve-rw
// ---------------------------------------------------------------------

/// Answers recorded for the seq-tagged oracle replay.
#[derive(Default)]
struct Recorded {
    reads: Vec<LiveObs>,
    ranges: Vec<RangeObs>,
    joins: Vec<JoinObs>,
    writes: Vec<(u64, WriteOp)>,
}

impl Recorded {
    fn record(&mut self, op: &NetOp, done: &Done) {
        use crate::rung::Answer;
        let sorted = |mut v: Vec<u64>| {
            v.sort_unstable();
            v
        };
        let seq = done.seq;
        match (op, &done.answer) {
            (NetOp::Point(q), Answer::Point(hit)) => self.reads.push(LiveObs {
                seq,
                query: MixedQuery::Point(*q),
                answer: LiveAnswer::Point(*hit),
            }),
            (NetOp::Window(w), Answer::Ids(ids)) => self.reads.push(LiveObs {
                seq,
                query: MixedQuery::Window(*w),
                answer: LiveAnswer::Window(sorted(ids.clone())),
            }),
            (NetOp::Knn(q, k), Answer::Knn(pts)) => self.reads.push(LiveObs {
                seq,
                query: MixedQuery::Knn(*q, *k as usize),
                answer: LiveAnswer::Knn(pts.iter().map(|p| p.id).collect()),
            }),
            (NetOp::Range(c, _), Answer::Ids(ids)) => self.ranges.push(RangeObs {
                seq,
                center: *c,
                ids: sorted(ids.clone()),
            }),
            (NetOp::Join(probes, _), Answer::Pairs(pairs)) => self.joins.push(JoinObs {
                seq,
                probes: probes.clone(),
                pairs: sorted_pairs(pairs),
            }),
            (NetOp::Insert(pt), _) => self.writes.push((seq, WriteOp::Insert(*pt))),
            (NetOp::Delete(pt), _) => self.writes.push((seq, WriteOp::Delete(*pt))),
            _ => unreachable!("rungs answer each op with its own answer shape"),
        }
    }

    /// Replays every recorded answer against the scan oracle (three
    /// threads: point, window+kNN, range+join).  Returns the wrong answers
    /// and the window/kNN share that matched.
    fn replay(mut self, data: &[Point], report: &mut Report) -> Result<(usize, f64), String> {
        self.writes.sort_by_key(|w| w.0);
        if let Some((i, (seq, _))) = self
            .writes
            .iter()
            .enumerate()
            .find(|(i, (seq, _))| *seq != *i as u64 + 1)
        {
            return Err(format!(
                "write {i} was applied at seq {seq}: the write stream has a gap"
            ));
        }
        let writes: Vec<WriteOp> = self.writes.into_iter().map(|(_, w)| w).collect();
        let (mut points, mut wk): (Vec<LiveObs>, Vec<LiveObs>) = self
            .reads
            .into_iter()
            .partition(|o| matches!(o.query, MixedQuery::Point(_)));
        let (rp, rwk, rrj) = std::thread::scope(|s| {
            let a = s.spawn(|| live::replay_against_oracle(data, &writes, &mut points, true, true));
            let b = s.spawn(|| live::replay_against_oracle(data, &writes, &mut wk, true, true));
            let c = s.spawn(|| {
                live::replay_range_join_against_oracle(
                    data,
                    &writes,
                    &self.ranges,
                    &self.joins,
                    RADIUS,
                )
            });
            (a.join(), b.join(), c.join())
        });
        let (rp, rwk, rrj) = match (rp, rwk, rrj) {
            (Ok(a), Ok(b), Ok(c)) => (a, b, c),
            _ => return Err("oracle replay panicked".into()),
        };
        for r in [&rp, &rwk, &rrj] {
            for d in &r.divergences {
                report.note(format!("wrong answer: {d}"));
            }
        }
        let wrong = rp.mismatches + rwk.mismatches + rrj.mismatches;
        report.note(format!(
            "replayed {} answers against the oracle over {} writes: {wrong} wrong",
            rp.checked + rwk.checked + rrj.checked + wrong,
            writes.len()
        ));
        let share = rwk.checked as f64 / (rwk.checked + rwk.mismatches).max(1) as f64;
        Ok((wrong, share))
    }
}

fn sorted_pairs(pairs: &[(u64, u64)]) -> Vec<(u64, u64)> {
    // The replay helper keys join pairs as (probe id, match id).
    let mut v: Vec<(u64, u64)> = pairs.iter().map(|&(m, probe)| (probe, m)).collect();
    v.sort_unstable();
    v
}

fn serve_rw(p: &Params, data: &[Point], report: &mut Report) -> Result<(), String> {
    let cfg = sharded_cfg();
    let reps = if p.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut stack: Option<(Served, NetRung)> = None;
    let mut spare: Option<Box<dyn SpatialIndex>> = None;
    let (mut build_s, mut serve_s) = (0.0, 0.0);
    for _ in 0..reps {
        if let Some((old, client)) = stack.take() {
            drop(client);
            old.stop();
        }
        let t0 = Instant::now();
        let index = registry::build_index(sharded_kind(), data, &cfg);
        build_s = secs(t0.elapsed());
        if p.trace {
            spare = Some(index.clone_index().ok_or("Sharded-RSMIa does not clone")?);
        }
        let t1 = Instant::now();
        let served = Served::start(index, data.to_vec(), ServeConfig::default().server_config())?;
        let rung = first_answer(&served.addr(), &data[0])?;
        serve_s = secs(t1.elapsed());
        setups.push(build_s + serve_s);
        stack = Some((served, rung));
    }
    let (served, mut rung) = stack.expect("at least one set-up");
    let index_bytes = served.server.size_bytes();

    let cap = (p.seconds * RW_OPS_PER_SECOND as f64) as usize;
    let ops = stream(data, cap.max(10_000), RW_WRITE_RATIO, p.seed ^ 0x20);
    let mut scrape_rung = NetRung::connect(&served.addr())?;
    let before = scrape(&mut scrape_rung, "serve-rw server")?;
    let stats_before = served.server.stats();
    let mut rec = Recorded::default();
    let mut next = 0;
    let mut run_loop = |until: Instant, trace: Option<&'static str>| {
        let out = closed_loop(
            &mut rung,
            &ops,
            next,
            false,
            until,
            trace,
            0,
            &mut |_, op, done| {
                rec.record(op, done);
                true
            },
        );
        next = out.next;
        Ok::<_, String>(out)
    };
    let main = if p.trace {
        traced_loops(report, p, &mut run_loop, "net")?
    } else {
        run_loop(Instant::now() + Duration::from_secs_f64(p.seconds), None)?
    };
    if next >= ops.len() {
        report.note(format!(
            "serve-rw used its whole stream of {} ops",
            ops.len()
        ));
    }
    tally(report, &main);
    let after = scrape(&mut scrape_rung, "serve-rw server")?;
    reconcile(report, "serve-rw server", &before, &after, &[&main]);

    let target = stats_before.compactions + MIN_COMPACTIONS;
    // A compaction already triggered may still be running; nothing new
    // triggers once the writes stop.
    let left = p
        .deadline
        .saturating_duration_since(Instant::now())
        .min(Duration::from_secs(10));
    let done = live::await_compactions(&served.server, target, left);
    if done < target {
        report.problem(format!(
            "serve-rw completed {} compactions, fewer than {MIN_COMPACTIONS}",
            done - stats_before.compactions
        ));
    }
    let (wrong, share) = rec.replay(data, report)?;
    report.wrong += wrong as u64;
    report.failed += wrong as u64;
    let stats_after = served.server.stats();
    report.note(format!(
        "compactions during the run: {} ({} partial, {} subtrees retrained)",
        stats_after.compactions - stats_before.compactions,
        stats_after.partial_compactions - stats_before.partial_compactions,
        stats_after.subtree_rebuilds - stats_before.subtree_rebuilds
    ));

    if !p.trace {
        end_to_end(report, &setups, &main, index_bytes, share)?;
        drop((rung, scrape_rung));
        served.stop();
        return Ok(());
    }

    // Per-layer: the served server's counters over both loops.
    server_stats_delta(report, &[stats_before], &[stats_after]);
    compaction_tails(report, &[after]);
    net_handle_stats(report, &[&served.handle]);
    drop((rung, scrape_rung));
    served.stop();
    report.set("setup.build_s", build_s);
    report.set("setup.serve_s", serve_s);

    // Ladder: the same op list through a bare clone, a Snapshot server and
    // a direct net server, each with its own copy of the index.  Their
    // compactors stay off so every rung holds identical state.
    let mut bare = spare.expect("traced set-up keeps a clone");
    let frozen = ServerConfig::default().with_auto_compact(false);
    let clone = |b: &dyn SpatialIndex| b.clone_index().ok_or("Sharded-RSMIa does not clone");
    let snap_server = SpatialServer::from_parts(
        clone(bare.as_ref())?,
        data.to_vec(),
        registry::rebuild_fn(sharded_kind(), &cfg),
        frozen,
    );
    let direct = Served::start(clone(bare.as_ref())?, data.to_vec(), frozen)?;
    let ladder_ops = stream(data, RW_LADDER_OPS, RW_WRITE_RATIO, p.seed ^ 0x21);
    let mut bare_rung = BareRung {
        index: bare.as_mut(),
        seq: 0,
    };
    let mut snap_rung = SnapshotRung {
        server: &snap_server,
    };
    let mut net_rung = NetRung::connect(&direct.addr())?;
    let mut lad_rec = Recorded::default();
    let mut reference = (0u64, 0u64);
    let mut lad = ladder(
        &mut [
            ("core", &mut bare_rung as &mut dyn Rung),
            ("server", &mut snap_rung),
            ("net", &mut net_rung),
        ],
        &ladder_ops,
        1,
        p.deadline,
        &mut |r, _, op, done| {
            let fp = (done.answer.fingerprint(), done.seq);
            if r == 0 {
                lad_rec.record(op, done);
                reference = fp;
                true
            } else {
                fp == reference
            }
        },
    )?;
    drop(net_rung);
    direct.stop();
    drop(snap_server);
    ladder_tally(report, &lad);
    let (wrong, _) = lad_rec.replay(data, report)?;
    report.wrong += wrong as u64;
    report.failed += wrong as u64;
    set_work(report, &lad.work);
    set_rung(report, "core", &lad.lat[0], &READ_CLASSES, false)?;
    set_rung(report, "server", &lad.lat[1], &READ_CLASSES, false)?;
    set_rung(report, "server", &lad.lat[1], &["write"], true)?;
    set_rung(report, "net", &lad.lat[2], &CLASSES, true)?;
    report.off_path(&["router.", "setup."]);
    let mut spans = main.spans;
    spans.absorb(std::mem::take(&mut lad.spans));
    write_trace(p, &spans)
}

// ---------------------------------------------------------------------
// route-read
// ---------------------------------------------------------------------

/// Two shard servers behind a router.
struct Routed {
    shards: Vec<Served>,
    router: RouterHandle,
}

impl Routed {
    /// Stops the router (which propagates shutdown to its shards), then
    /// joins every shard server.
    fn stop(self) {
        self.router.shutdown();
        self.router.join();
        for s in self.shards {
            s.stop();
        }
    }
}

#[derive(Default, Clone, Copy)]
struct RouteSetup {
    build_s: f64,
    snapshot_s: f64,
    snapshot_mb: f64,
    load_s: f64,
    serve_s: f64,
}

/// Build → snapshot → extract and load each shard → serve shards and
/// router → first answer.
fn route_setup(
    data: &[Point],
    cfg: &IndexConfig,
) -> Result<(Box<dyn SpatialIndex>, Routed, NetRung, RouteSetup), String> {
    let mut t = RouteSetup::default();
    let t0 = Instant::now();
    let index = registry::build_index(sharded_kind(), data, cfg);
    t.build_s = secs(t0.elapsed());
    let t1 = Instant::now();
    let bytes = registry::snapshot_bytes(index.as_ref()).map_err(|e| format!("snapshot: {e}"))?;
    t.snapshot_s = secs(t1.elapsed());
    t.snapshot_mb = bytes.len() as f64 / 1e6;
    let t2 = Instant::now();
    let (_, manifest) =
        registry::load_shard_manifest_bytes(&bytes).map_err(|e| format!("manifest: {e}"))?;
    let mut servers = Vec::new();
    for shard in 0..manifest.shard_count() {
        let blob = registry::load_shard_snapshot_bytes(&bytes, shard)
            .map_err(|e| format!("extract shard {shard}: {e}"))?;
        let server =
            registry::serve_snapshot_bytes(&blob, cfg, ServeConfig::default().server_config())
                .map_err(|e| format!("load shard {shard}: {e}"))?;
        servers.push(Arc::new(server));
    }
    t.load_s = secs(t2.elapsed());
    let t3 = Instant::now();
    let shards = servers
        .into_iter()
        .map(Served::listen)
        .collect::<Result<Vec<_>, _>>()?;
    let replicas = shards.iter().map(|s| vec![s.addr()]).collect();
    let router = router::serve(manifest, replicas, &ServeConfig::default())
        .map_err(|e| format!("router::serve: {e}"))?;
    let routed = Routed { shards, router };
    let rung = first_answer(&routed.router.local_addr().to_string(), &data[0])?;
    t.serve_s = secs(t3.elapsed());
    Ok((index, routed, rung, t))
}

fn route_read(p: &Params, data: &[Point], report: &mut Report) -> Result<(), String> {
    let cfg = sharded_cfg();
    let reps = if p.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut stack = None;
    for _ in 0..reps {
        if let Some((_, old, client, _)) = stack.take() {
            let old: Routed = old;
            drop(client);
            old.stop();
        }
        let s = route_setup(data, &cfg)?;
        let t = s.3;
        setups.push(t.build_s + t.snapshot_s + t.load_s + t.serve_s);
        stack = Some(s);
    }
    let (mut index, routed, first, times) = stack.expect("at least one set-up");
    drop(first);
    let router_addr = routed.router.local_addr().to_string();
    let index_bytes = index.size_bytes();

    let streams: Vec<Vec<NetOp>> = (0..2)
        .map(|c| stream(data, DISTINCT_OPS, 0.0, p.seed ^ (0x30 + c)))
        .collect();
    let mut fps = Vec::new();
    let (mut found, mut expected) = (0, 0);
    for ops in &streams {
        let (f, fo, ex) = prepass(index.as_mut(), data, ops, true, report)?;
        fps.push(f);
        found += fo;
        expected += ex;
    }
    let recall = found as f64 / expected.max(1) as f64;

    let mut scrape_rung = NetRung::connect(&router_addr)?;
    let before = scrape(&mut scrape_rung, "router")?;
    let shard_before: Vec<server::ServerStats> =
        routed.shards.iter().map(|s| s.server.stats()).collect();
    let mut rungs = vec![
        NetRung::connect(&router_addr)?,
        NetRung::connect(&router_addr)?,
    ];
    let mut next = [0usize; 2];
    let mut run_loop =
        |until: Instant, trace: Option<&'static str>| -> Result<LoopOutcome, String> {
            let outs: Vec<LoopOutcome> = std::thread::scope(|s| {
                let handles: Vec<_> = rungs
                    .iter_mut()
                    .zip(&streams)
                    .zip(&fps)
                    .zip(next.iter())
                    .enumerate()
                    .map(|(c, (((rung, ops), fps), &start))| {
                        s.spawn(move || {
                            closed_loop(
                                rung,
                                ops,
                                start,
                                true,
                                until,
                                trace,
                                (c as u64) << 32,
                                &mut |i, _, done| done.answer.fingerprint() == fps[i % fps.len()],
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join())
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|_| "client thread panicked".to_string())?;
            let mut all = LoopOutcome::default();
            for (c, out) in outs.into_iter().enumerate() {
                next[c] = out.next;
                all.absorb(out);
            }
            Ok(all)
        };
    let main = if p.trace {
        traced_loops(report, p, &mut run_loop, "router")?
    } else {
        run_loop(Instant::now() + Duration::from_secs_f64(p.seconds), None)?
    };
    tally(report, &main);

    let after = scrape(&mut scrape_rung, "router")?;
    reconcile(report, "router", &before, &after, &[&main]);
    if !p.trace {
        end_to_end(report, &setups, &main, index_bytes, recall)?;
        drop((rungs, scrape_rung));
        routed.stop();
        return Ok(());
    }

    // Ladder: bare sharded index → Snapshot of a server over a clone of it
    // → a direct net server on that same server → the router.
    let snap_server = Arc::new(SpatialServer::from_parts(
        index.clone_index().ok_or("Sharded-RSMIa does not clone")?,
        data.to_vec(),
        registry::rebuild_fn(sharded_kind(), &cfg),
        ServeConfig::default().server_config(),
    ));
    let direct = Served::listen(Arc::clone(&snap_server))?;
    let mut direct_scrape = NetRung::connect(&direct.addr())?;
    let direct_before = scrape(&mut direct_scrape, "direct server")?;
    let ops = &streams[0];
    let fps0 = &fps[0];
    let router_before = scrape(&mut scrape_rung, "router")?;
    let mut bare_rung = BareRung {
        index: index.as_mut(),
        seq: 0,
    };
    let mut snap_rung = SnapshotRung {
        server: &snap_server,
    };
    let mut net_rung = NetRung::connect(&direct.addr())?;
    let mut lad = ladder(
        &mut [
            ("core", &mut bare_rung as &mut dyn Rung),
            ("server", &mut snap_rung),
            ("net", &mut net_rung),
            ("router", &mut rungs[0]),
        ],
        ops,
        LADDER_PASSES,
        p.deadline,
        &mut |_, i, _, done| done.answer.fingerprint() == fps0[i],
    )?;
    ladder_tally(report, &lad);
    let router_after = scrape(&mut scrape_rung, "router")?;
    let direct_after = scrape(&mut direct_scrape, "direct server")?;
    let outcome_of = |lat: &measure::Samples| {
        let mut o = LoopOutcome::default();
        for (class, v) in &lat.0 {
            let net_class = if *class == "join" {
                "join-probe"
            } else {
                class
            };
            o.net.latencies.insert(net_class, v.clone());
        }
        o
    };
    reconcile(
        report,
        "direct server",
        &direct_before,
        &direct_after,
        &[&outcome_of(&lad.lat[2])],
    );
    reconcile(
        report,
        "router (ladder)",
        &router_before,
        &router_after,
        &[&outcome_of(&lad.lat[3])],
    );
    let again = count_work(&mut bare_rung, ops)?;
    work_self_check(report, &lad.work, &again);

    let shard_metrics = routed
        .shards
        .iter()
        .map(|s| NetRung::connect(&s.addr()).and_then(|mut r| scrape(&mut r, "shard server")))
        .collect::<Result<Vec<_>, _>>()?;
    let shard_after: Vec<server::ServerStats> =
        routed.shards.iter().map(|s| s.server.stats()).collect();
    server_stats_delta(report, &shard_before, &shard_after);
    compaction_tails(report, &shard_metrics);
    net_handle_stats(
        report,
        &routed.shards.iter().map(|s| &s.handle).collect::<Vec<_>>(),
    );

    let read_ops = (lad.lat[3].0.values().map(Vec::len).sum::<usize>()).max(1) as f64;
    let delta = |name: &str| {
        (router_after.counter(name).unwrap_or(0) - router_before.counter(name).unwrap_or(0)) as f64
    };
    report.set(
        "router.shards_visited_per_op",
        delta("router.shards_visited") / read_ops,
    );
    report.set(
        "router.shards_pruned_per_op",
        delta("router.shards_pruned") / read_ops,
    );
    report.note(format!(
        "router work (ladder, {} passes): shards_visited={} shards_pruned={}",
        LADDER_PASSES,
        delta("router.shards_visited"),
        delta("router.shards_pruned")
    ));
    for shard in 0..2 {
        let name = format!("router.upstream_us.shard{shard}");
        let p50 = router_after
            .histogram(&name)
            .map_or(0, |h| h.percentile(50.0));
        report.set(format!("router.upstream_us_p50.shard{shard}"), p50 as f64);
    }
    report.set(
        "router.replica_failovers",
        router_after
            .counter("router.replica_failovers")
            .unwrap_or(0) as f64,
    );

    set_work(report, &lad.work);
    set_rung(report, "core", &lad.lat[0], &READ_CLASSES, false)?;
    set_rung(report, "server", &lad.lat[1], &READ_CLASSES, false)?;
    set_rung(report, "net", &lad.lat[2], &READ_CLASSES, true)?;
    for class in READ_CLASSES {
        let self_us = measure::median(lad.lat[3].of(class)) - measure::median(lad.lat[2].of(class));
        report.set(format!("router.{class}.us_p50"), self_us);
    }
    report.set("setup.build_s", times.build_s);
    report.set("setup.snapshot_s", times.snapshot_s);
    report.set("setup.snapshot_mb", times.snapshot_mb);
    report.set("setup.load_s", times.load_s);
    report.set("setup.serve_s", times.serve_s);
    report.off_path(&["server.write.", "net.write."]);

    drop((net_rung, direct_scrape, rungs, scrape_rung));
    direct.stop();
    drop(snap_server);
    routed.stop();
    let mut spans = main.spans;
    spans.absorb(std::mem::take(&mut lad.spans));
    write_trace(p, &spans)
}
