//! The load generator: closed- and open-loop phases over two keep-alive
//! connections, two threads, every answer checked by the oracle.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use les3_net::json::Json;

use crate::net::Conn;
use crate::oracle::Oracle;
use crate::workload::{
    find_inserted_body, http_request, insert_body, Class, Data, Op, Rng, NS_NAME, NS_SETS,
};

/// A set this run inserted into the namespace.
#[derive(Clone, Copy, Debug)]
pub struct Inserted {
    pub id: u32,
    pub bench_id: u64,
    pub pool: u32,
}

/// What the writes of a run did, as acknowledged by the server.
#[derive(Default)]
pub struct Writes {
    /// Live inserted sets, oldest first (deletes take the oldest).
    pub live: VecDeque<Inserted>,
    pub deleted: Vec<Inserted>,
    pub next_bench_id: u64,
    pub inserts: usize,
}

/// Shared state of one run's load generator.
pub struct Ctx<'a> {
    pub data: &'a Data,
    pub oracle: &'a Oracle,
    pub writes: Mutex<Writes>,
    /// `200` answers an exact oracle rejected.
    pub mismatches: AtomicUsize,
}

pub struct Outcome {
    pub ok: bool,
    pub recall: Option<f64>,
}

/// One executed op of a phase.
pub struct Sample {
    pub class: Class,
    /// When the answer arrived, from the start of the phase.
    pub done: Duration,
    /// From send (closed loop) or due time (open loop) to answer.
    pub latency: Duration,
    /// How late the generator sent it (open loop).
    pub late: Duration,
    pub ok: bool,
    pub recall: Option<f64>,
}

pub struct Phase {
    pub samples: Vec<Sample>,
    pub elapsed: Duration,
}

impl<'a> Ctx<'a> {
    pub fn new(data: &'a Data, oracle: &'a Oracle) -> Ctx<'a> {
        Ctx {
            data,
            oracle,
            writes: Mutex::new(Writes::default()),
            mismatches: AtomicUsize::new(0),
        }
    }

    fn writes(&self) -> std::sync::MutexGuard<'_, Writes> {
        self.writes
            .lock()
            .expect("no thread panics while holding the write log")
    }

    /// Sends `op` on `conn` and checks the answer. A transport error
    /// reconnects and counts as a failure.
    pub fn execute(&self, conn: &mut Conn, op: Op) -> Outcome {
        let fail = Outcome {
            ok: false,
            recall: None,
        };
        match op {
            Op::Knn(_) | Op::Range(_) => {
                let Some((status, body)) = call(conn, self.data.read_bytes(op)) else {
                    return Outcome {
                        ok: false,
                        recall: matches!(op, Op::Knn(_)).then_some(0.0),
                    };
                };
                let verdict = self.oracle.check_read(self.data, op, status, &body);
                if verdict.mismatch {
                    self.mismatches.fetch_add(1, Ordering::Relaxed);
                }
                Outcome {
                    ok: verdict.ok,
                    recall: verdict.recall,
                }
            }
            Op::Insert(p) => self.insert(conn, p),
            Op::Delete => {
                let victim = self.writes().live.pop_front();
                let Some(victim) = victim else {
                    // Nothing acknowledged yet to delete: insert instead.
                    let p = self.writes().next_bench_id % self.data.pool.len() as u64;
                    return self.insert(conn, p as u32);
                };
                let request = http_request(
                    "POST",
                    &format!("/ns/{NS_NAME}/delete"),
                    &format!("{{\"id\":{}}}", victim.id),
                );
                let Some((200, body)) = call(conn, &request) else {
                    return fail;
                };
                let deleted = parse(&body).and_then(|v| match v.get("deleted") {
                    Some(Json::Bool(b)) => Some(*b),
                    _ => None,
                });
                if deleted == Some(true) {
                    self.writes().deleted.push(victim);
                    Outcome {
                        ok: true,
                        recall: None,
                    }
                } else {
                    self.writes().live.push_front(victim);
                    fail
                }
            }
            Op::Snapshot => {
                let request = http_request("POST", "/snapshot", "");
                let ok = matches!(call(conn, &request), Some((200, body))
                    if parse(&body).and_then(|v| v.get("ok").cloned()) == Some(Json::Bool(true)));
                Outcome { ok, recall: None }
            }
        }
    }

    fn insert(&self, conn: &mut Conn, p: u32) -> Outcome {
        let bench_id = {
            let mut writes = self.writes();
            writes.next_bench_id += 1;
            writes.next_bench_id
        };
        let tokens = &self.data.pool[p as usize];
        let request = http_request(
            "POST",
            &format!("/ns/{NS_NAME}/insert"),
            &insert_body(tokens, bench_id),
        );
        let id = match call(conn, &request) {
            Some((200, body)) => parse(&body).and_then(|v| v.get("id").and_then(Json::as_u64)),
            _ => None,
        };
        match id {
            Some(id) => {
                let mut writes = self.writes();
                writes.inserts += 1;
                writes.live.push_back(Inserted {
                    id: id as u32,
                    bench_id,
                    pool: p,
                });
                Outcome {
                    ok: true,
                    recall: None,
                }
            }
            None => Outcome {
                ok: false,
                recall: None,
            },
        }
    }

    /// Runs ops from `first_op` on both connections for `duration`:
    /// closed loop when `rate` is `None`, else an open loop with Poisson
    /// arrivals at `rate` per second (exponential gaps drawn from the
    /// seed, so the schedule repeats).
    pub fn phase(
        &self,
        conns: &mut [Conn; 2],
        first_op: usize,
        duration: Duration,
        rate: Option<f64>,
    ) -> Phase {
        let schedule: Vec<Duration> = rate.map_or_else(Vec::new, |rate| {
            let mut rng = Rng::new(self.data.seed, 3);
            let mut at = 0.0;
            std::iter::from_fn(|| {
                // `u` is uniform in [0, 1); `-ln(1 - u) / rate` an
                // exponential gap.
                let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                at += -(1.0 - u).ln() / rate;
                (at < duration.as_secs_f64()).then(|| Duration::from_secs_f64(at))
            })
            .collect()
        });
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        let end = start + duration;
        let worker = |conn: &mut Conn| {
            let mut samples = Vec::new();
            loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                let due = match rate {
                    Some(_) => match schedule.get(j) {
                        Some(&offset) => start + offset,
                        None => break,
                    },
                    None => Instant::now(),
                };
                if due >= end {
                    break;
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let op = self.data.ops[(first_op + j) % self.data.ops.len()];
                let outcome = self.execute(conn, op);
                samples.push(Sample {
                    class: op.class(),
                    done: start.elapsed(),
                    latency: due.elapsed(),
                    late: sent.saturating_duration_since(due),
                    ok: outcome.ok,
                    recall: outcome.recall,
                });
            }
            samples
        };
        let [a, b] = conns;
        let mut samples = std::thread::scope(|s| {
            let other = s.spawn(|| worker(b));
            let mut mine = worker(a);
            mine.extend(other.join().expect("load thread panicked"));
            mine
        });
        samples.shrink_to_fit();
        Phase {
            samples,
            elapsed: start.elapsed(),
        }
    }

    /// After the timed phases: each live inserted set must be found at
    /// similarity 1.0, each deleted one must be gone, and `GET /ns/bench`
    /// must count the expected live sets. Returns `(attempted, failed)`.
    pub fn check_writes(&self, conn: &mut Conn) -> (usize, usize) {
        let writes = self.writes();
        let mut failed = 0;
        let mut attempted = 0;
        let path = format!("/ns/{NS_NAME}/knn");
        let sets = writes
            .live
            .iter()
            .map(|s| (s, true))
            .chain(writes.deleted.iter().map(|s| (s, false)));
        for (set, live) in sets {
            attempted += 1;
            let tokens = &self.data.pool[set.pool as usize];
            let request = http_request("POST", &path, &find_inserted_body(tokens, set.bench_id));
            let hits = match call(conn, &request) {
                Some((200, body)) => parse(&body)
                    .and_then(|v| les3_net::wire::decode_result(&v))
                    .map(|r| r.hits),
                _ => None,
            };
            let ok = match hits {
                Some(hits) if live => hits == [(set.id, 1.0)],
                Some(hits) => hits.is_empty(),
                None => false,
            };
            failed += usize::from(!ok);
        }
        attempted += 1;
        let info = call(conn, &http_request("GET", &format!("/ns/{NS_NAME}"), ""))
            .and_then(|(status, body)| (status == 200).then(|| parse(&body)).flatten());
        let expected_live = NS_SETS + writes.live.len();
        let expected_sets = NS_SETS + writes.inserts;
        let counts_ok = info.is_some_and(|v| {
            v.get("live_sets").and_then(Json::as_u64) == Some(expected_live as u64)
                && v.get("n_sets").and_then(Json::as_u64) == Some(expected_sets as u64)
        });
        failed += usize::from(!counts_ok);
        (attempted, failed)
    }
}

fn call(conn: &mut Conn, request: &[u8]) -> Option<(u16, Vec<u8>)> {
    match conn.call(request) {
        Ok(answer) => Some(answer),
        Err(_) => {
            let _ = conn.reconnect();
            None
        }
    }
}

fn parse(body: &[u8]) -> Option<Json> {
    Json::parse(std::str::from_utf8(body).ok()?).ok()
}
