//! The rungs of the layer ladder: one op executed through one layer's
//! public entry point, timed around exactly that call.
//!
//! * [`BareRung`] — the index behind `Box<dyn SpatialIndex>` (`core`, plus
//!   `engine` for a sharded index).
//! * [`SnapshotRung`] — a `server::Snapshot` of a [`SpatialServer`] (reads)
//!   and `SpatialServer::insert`/`delete` (writes).
//! * [`NetRung`] — a [`NetClient`] against a net server or a router.

use bench::netload::NetOp;
use common::{QueryContext, SpatialIndex};
use geom::Point;
use net::{NetClient, NetError};
use server::SpatialServer;
use std::time::{Duration, Instant};

/// The benchmark's six operation classes (`write` covers insert and
/// delete; `join` is one probe batch).
pub const CLASSES: [&str; 6] = ["point", "window", "knn", "range", "join", "write"];

/// The five read classes.
pub const READ_CLASSES: [&str; 5] = ["point", "window", "knn", "range", "join"];

/// The benchmark class of an op (see [`CLASSES`]).
pub fn class_of(op: &NetOp) -> &'static str {
    match op {
        NetOp::Point(_) => "point",
        NetOp::Window(_) => "window",
        NetOp::Knn(..) => "knn",
        NetOp::Range(..) => "range",
        NetOp::Join(..) => "join",
        NetOp::Insert(_) | NetOp::Delete(_) => "write",
    }
}

/// One answer, reduced to what the checks compare.
#[derive(Debug, Clone)]
pub enum Answer {
    /// Point hit id.
    Point(Option<u64>),
    /// Window or range result ids, in the order returned.
    Ids(Vec<u64>),
    /// kNN result, closest first.
    Knn(Vec<Point>),
    /// Join pairs as `(indexed id, probe id)`, in the order returned.
    Pairs(Vec<(u64, u64)>),
    /// Write outcome: whether a delete removed a point (false for inserts).
    Write(bool),
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Answer {
    /// A 64-bit fingerprint: order-insensitive for sets (window, range,
    /// join, whose visit order is unspecified), order-sensitive for kNN.
    pub fn fingerprint(&self) -> u64 {
        let set = |items: &mut dyn Iterator<Item = u64>| {
            let (mut n, mut sum) = (0u64, 0u64);
            for x in items {
                n += 1;
                sum = sum.wrapping_add(mix(x));
            }
            mix(sum ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        };
        match self {
            Answer::Point(hit) => mix(hit.map_or(u64::MAX, |id| id ^ 0x5151)),
            Answer::Ids(ids) => set(&mut ids.iter().copied()),
            Answer::Knn(pts) => pts.iter().fold(0x4B4E_4E00, |h, p| mix(h ^ p.id)),
            Answer::Pairs(pairs) => set(&mut pairs.iter().map(|&(a, b)| mix(a) ^ b)),
            Answer::Write(removed) => *removed as u64,
        }
    }

    /// Number of results (hits, ids, neighbours or pairs).
    pub fn results(&self) -> usize {
        match self {
            Answer::Point(hit) => hit.is_some() as usize,
            Answer::Ids(ids) => ids.len(),
            Answer::Knn(pts) => pts.len(),
            Answer::Pairs(pairs) => pairs.len(),
            Answer::Write(_) => 0,
        }
    }
}

/// A completed op.
pub struct Done {
    /// What came back.
    pub answer: Answer,
    /// Write sequence the answer observed (the applied write's own
    /// sequence for writes).
    pub seq: u64,
    /// Time of the layer call alone, in microseconds.
    pub us: f64,
    /// When the call started.
    pub start: Instant,
}

/// Why an op did not complete.
#[derive(Debug)]
pub enum OpError {
    /// A typed OVERLOAD shed by admission control.
    Shed,
    /// Any other transport or protocol error.
    Conn(String),
}

/// One layer's entry point.
pub trait Rung {
    /// Executes `op`, charging index work to `cx` where the layer exposes
    /// it.
    fn exec(&mut self, op: &NetOp, cx: &mut QueryContext) -> Result<Done, OpError>;
}

/// Runs the layer call `f`, storing the microseconds since `start` in
/// `us` the moment it returns.
fn timed<T>(start: Instant, us: &mut f64, f: impl FnOnce() -> T) -> T {
    let r = f();
    *us = start.elapsed().as_secs_f64() * 1e6;
    r
}

fn ids(pts: &[Point]) -> Vec<u64> {
    pts.iter().map(|p| p.id).collect()
}

/// The bare index.  Writes go straight into it; `seq` counts them.
pub struct BareRung<'a> {
    pub index: &'a mut dyn SpatialIndex,
    pub seq: u64,
}

impl Rung for BareRung<'_> {
    fn exec(&mut self, op: &NetOp, cx: &mut QueryContext) -> Result<Done, OpError> {
        let index = &mut *self.index;
        let start = Instant::now();
        let mut us = 0.0;
        let answer = match op {
            NetOp::Point(p) => {
                Answer::Point(timed(start, &mut us, || index.point_query(p, cx)).map(|f| f.id))
            }
            NetOp::Window(w) => {
                Answer::Ids(ids(&timed(start, &mut us, || index.window_query(w, cx))))
            }
            NetOp::Knn(p, k) => Answer::Knn(timed(start, &mut us, || {
                index.knn_query(p, *k as usize, cx)
            })),
            NetOp::Range(p, r) => {
                Answer::Ids(ids(&timed(start, &mut us, || index.range_query(p, *r, cx))))
            }
            NetOp::Join(probes, r) => {
                let mut pairs = Vec::new();
                timed(start, &mut us, || {
                    index.distance_join_probes(probes, *r, cx, &mut |a, b| pairs.push((a.id, b.id)))
                });
                Answer::Pairs(pairs)
            }
            NetOp::Insert(p) => {
                timed(start, &mut us, || index.insert(*p));
                Answer::Write(false)
            }
            NetOp::Delete(p) => Answer::Write(timed(start, &mut us, || index.delete(p))),
        };
        if matches!(op, NetOp::Insert(_) | NetOp::Delete(_)) {
            self.seq += 1;
        }
        Ok(Done {
            answer,
            seq: self.seq,
            us,
            start,
        })
    }
}

/// A serving snapshot per read, the server's write path per write.
pub struct SnapshotRung<'a> {
    pub server: &'a SpatialServer,
}

impl Rung for SnapshotRung<'_> {
    fn exec(&mut self, op: &NetOp, cx: &mut QueryContext) -> Result<Done, OpError> {
        let server = self.server;
        let start = Instant::now();
        let mut us = 0.0;
        let (answer, seq) = match op {
            NetOp::Insert(p) => (
                Answer::Write(false),
                timed(start, &mut us, || server.insert(*p)),
            ),
            NetOp::Delete(p) => {
                let (removed, seq) = timed(start, &mut us, || server.delete(p));
                (Answer::Write(removed), seq)
            }
            read => {
                let snap = server.snapshot();
                let answer = match read {
                    NetOp::Point(p) => Answer::Point(
                        timed(start, &mut us, || snap.point_query(p, cx)).map(|f| f.id),
                    ),
                    NetOp::Window(w) => {
                        Answer::Ids(ids(&timed(start, &mut us, || snap.window_query(w, cx))))
                    }
                    NetOp::Knn(p, k) => {
                        Answer::Knn(timed(start, &mut us, || snap.knn_query(p, *k as usize, cx)))
                    }
                    NetOp::Range(p, r) => {
                        Answer::Ids(ids(&timed(start, &mut us, || snap.range_query(p, *r, cx))))
                    }
                    NetOp::Join(probes, r) => {
                        let mut pairs = Vec::new();
                        timed(start, &mut us, || {
                            snap.distance_join_probes(probes, *r, cx, &mut |a, b| {
                                pairs.push((a.id, b.id))
                            })
                        });
                        Answer::Pairs(pairs)
                    }
                    NetOp::Insert(_) | NetOp::Delete(_) => unreachable!("writes handled above"),
                };
                (answer, snap.seq())
            }
        };
        Ok(Done {
            answer,
            seq,
            us,
            start,
        })
    }
}

/// A wire client against a net server or a router.
pub struct NetRung {
    pub client: NetClient,
}

impl NetRung {
    /// Connects, retrying briefly while the listener comes up.
    pub fn connect(addr: &str) -> Result<Self, String> {
        NetClient::connect_retry(addr, Duration::from_secs(10))
            .map(|client| Self { client })
            .map_err(|e| format!("connect {addr}: {e}"))
    }
}

impl Rung for NetRung {
    fn exec(&mut self, op: &NetOp, _cx: &mut QueryContext) -> Result<Done, OpError> {
        let c = &mut self.client;
        let start = Instant::now();
        let mut us = 0.0;
        let result =
            match op {
                NetOp::Point(p) => timed(start, &mut us, || c.point(p))
                    .map(|(s, hit)| (Answer::Point(hit.map(|f| f.id)), s)),
                NetOp::Window(w) => timed(start, &mut us, || c.window(w))
                    .map(|(s, pts)| (Answer::Ids(ids(&pts)), s)),
                NetOp::Knn(p, k) => {
                    timed(start, &mut us, || c.knn(p, *k)).map(|(s, pts)| (Answer::Knn(pts), s))
                }
                NetOp::Range(p, r) => timed(start, &mut us, || c.range(p, *r))
                    .map(|(s, pts)| (Answer::Ids(ids(&pts)), s)),
                NetOp::Join(probes, r) => {
                    timed(start, &mut us, || c.join_probes(probes, *r)).map(|(s, pairs)| {
                        let pairs = pairs.iter().map(|(a, b)| (a.id, b.id)).collect();
                        (Answer::Pairs(pairs), s)
                    })
                }
                NetOp::Insert(p) => {
                    timed(start, &mut us, || c.insert(p)).map(|s| (Answer::Write(false), s))
                }
                NetOp::Delete(p) => timed(start, &mut us, || c.delete(p))
                    .map(|(removed, s)| (Answer::Write(removed), s)),
            };
        match result {
            Ok((answer, seq)) => Ok(Done {
                answer,
                seq,
                us,
                start,
            }),
            Err(NetError::Overload) => Err(OpError::Shed),
            Err(e) => Err(OpError::Conn(format!("{} request failed: {e}", op.class()))),
        }
    }
}
