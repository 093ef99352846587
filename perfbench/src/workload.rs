//! Workload definitions: datasets, query pools, op sequences and the
//! exact request bytes every phase (HTTP and in-process replay) sends.
//!
//! Everything here is a pure function of the workload and the seed, so
//! the same seed gives the same inputs.

use les3_data::zipfian::ZipfianGenerator;
use les3_data::{SetDatabase, TokenId};

/// Seed used when `--seed` is not given; the recorded counter sums in
/// `counters-default-seed.json` are for this seed. (The held-out seed of
/// `README.md`, 7919, is deliberately not named in code.)
pub const DEFAULT_SEED: u64 = 1;

/// kNN `k` on every workload.
pub const K: usize = 10;
/// Range threshold on `knn-exact`.
pub const DELTA: f64 = 0.5;
/// Prefilter shape queried on `approx-prefilter` (`"bands"`, `"rows"`).
pub const PREFILTER: (u32, u32) = (8, 1);
/// Sidecar shape `approx-prefilter` builds (`--approx 16x1`).
pub const SIDECAR: (u32, u32) = (16, 1);

/// Sets, groups and query pool of the 100k-set workloads.
pub const BIG_SETS: usize = 100_000;
pub const BIG_GROUPS: usize = 1_250;
/// Sets, groups and shards of the namespace corpus.
pub const NS_SETS: usize = 12_000;
pub const NS_GROUPS: usize = 150;
pub const NS_SHARDS: usize = 4;
/// Namespace the `ns-filtered-rw` corpus lives in.
pub const NS_NAME: &str = "bench";
/// A `POST /snapshot` follows every this many writes.
pub const SNAPSHOT_EVERY: usize = 50;

/// The read filter of `ns-filtered-rw`: `tier=gold ∧ region∈{eu,us}`.
pub const NS_FILTER: &str = r#"{"and":[{"eq":{"key":"tier","value":"gold"}},{"in":{"key":"region","values":["eu","us"]}}]}"#;
const REGIONS: [&str; 8] = ["eu", "us", "ap", "sa", "af", "me", "oc", "na"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    KnnExact,
    NsFilteredRw,
    ApproxPrefilter,
}

pub const ALL: [Workload; 3] = [
    Workload::KnnExact,
    Workload::NsFilteredRw,
    Workload::ApproxPrefilter,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::KnnExact => "knn-exact",
            Workload::NsFilteredRw => "ns-filtered-rw",
            Workload::ApproxPrefilter => "approx-prefilter",
        }
    }

    /// Why the workload exists: the layers it stresses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::KnnExact => {
                "exact kNN (70%) and range (30%) over 100k sets: the index (phase A, bounds, \
                 verification, intra-query fan-out) does nearly all the work"
            }
            Workload::NsFilteredRw => {
                "filtered kNN at ~1.25% selectivity beside inserts, deletes and snapshots on a \
                 4-shard namespace: HTTP, JSON, batching, filters, locks and segment writes dominate"
            }
            Workload::ApproxPrefilter => {
                "MinHash-prefiltered kNN over the knn-exact data: the only workload running the \
                 LSH mask producer, with recall guarding the speed"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Open-loop arrival rate (requests/s), fixed so runs stay
    /// comparable: about a quarter of the closed-loop capacity on a
    /// 2-CPU host, low enough that queueing in the two connections
    /// does not amplify the host's own speed swings.
    pub fn open_rate(self) -> f64 {
        match self {
            Workload::KnnExact => 40.0,
            Workload::NsFilteredRw => 350.0,
            Workload::ApproxPrefilter => 30.0,
        }
    }

    /// Server start-ups timed per run; `setup_s` is their median. The
    /// namespace start-up is dominated by decoding the `PUT` body and
    /// varies less.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::NsFilteredRw => 3,
            _ => 9,
        }
    }

    /// Distinct queries a run cycles through (each has a precomputed
    /// answer).
    pub fn pool_size(self) -> usize {
        match self {
            Workload::NsFilteredRw => 1_000,
            _ => 400,
        }
    }

    /// Ops the traced run replays in process.
    pub fn replay_ops(self) -> usize {
        match self {
            Workload::NsFilteredRw => 1_000,
            _ => 100,
        }
    }

    pub fn n_sets(self) -> usize {
        match self {
            Workload::NsFilteredRw => NS_SETS,
            _ => BIG_SETS,
        }
    }
}

/// SplitMix64: the bench's only randomness, seeded from `--seed`.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One operation of a workload's mix. Reads name a query-pool entry;
/// inserts name the pool entry whose tokens they copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Knn(u32),
    Range(u32),
    Insert(u32),
    Delete,
    Snapshot,
}

/// Op classes latencies are reported by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Knn,
    Range,
    Write,
    Snapshot,
}

impl Op {
    pub fn class(self) -> Class {
        match self {
            Op::Knn(_) => Class::Knn,
            Op::Range(_) => Class::Range,
            Op::Insert(_) | Op::Delete => Class::Write,
            Op::Snapshot => Class::Snapshot,
        }
    }
}

/// Everything a run needs, generated from the seed.
pub struct Data {
    pub workload: Workload,
    pub seed: u64,
    pub db: SetDatabase,
    /// `(tier, region)` per set (namespace workload only).
    pub attrs: Vec<(&'static str, &'static str)>,
    /// Query sets sampled from the database (§7.1 of the paper).
    pub pool: Vec<Vec<TokenId>>,
    /// The op sequence; phases walk it in order, wrapping around.
    pub ops: Vec<Op>,
    /// Pre-built request bytes of each pool entry's read (kNN).
    pub knn_requests: Vec<Vec<u8>>,
    /// Pre-built range request bytes (`knn-exact` only).
    pub range_requests: Vec<Vec<u8>>,
}

impl Data {
    pub fn generate(workload: Workload, seed: u64) -> Data {
        let n = workload.n_sets();
        let db = ZipfianGenerator::new(n, (n / 5) as u32, 12.0, 1.1).generate(seed);
        let mut rng = Rng::new(seed, 1);
        let attrs = if workload == Workload::NsFilteredRw {
            (0..n)
                .map(|_| {
                    let tier = if rng.below(20) == 0 { "gold" } else { "std" };
                    (tier, REGIONS[rng.below(REGIONS.len())])
                })
                .collect()
        } else {
            Vec::new()
        };
        let pool: Vec<Vec<TokenId>> = (0..workload.pool_size())
            .map(|_| db.set(rng.below(n) as u32).to_vec())
            .collect();
        let ops = op_sequence(workload, seed, pool.len());
        let knn_requests = pool.iter().map(|q| read_request(workload, q)).collect();
        let range_requests = if workload == Workload::KnnExact {
            pool.iter()
                .map(|q| {
                    let body = format!("{{\"query\":{},\"delta\":{DELTA}}}", tokens_json(q));
                    http_request("POST", "/range", &body)
                })
                .collect()
        } else {
            Vec::new()
        };
        Data {
            workload,
            seed,
            db,
            attrs,
            pool,
            ops,
            knn_requests,
            range_requests,
        }
    }

    /// The `--load` file: one set per line, space-separated token ids.
    pub fn db_text(&self) -> String {
        let mut out = String::with_capacity(self.db.total_tokens() * 6);
        for (_, set) in self.db.iter() {
            for (i, t) in set.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(&t.to_string());
            }
            out.push('\n');
        }
        out
    }

    /// The `PUT /ns/bench` body creating the namespace corpus.
    pub fn ns_put_body(&self) -> String {
        let mut out = format!("{{\"n_groups\":{NS_GROUPS},\"n_shards\":{NS_SHARDS},\"sets\":[");
        for (id, set) in self.db.iter() {
            if id > 0 {
                out.push(',');
            }
            out.push_str(&tokens_json(set));
        }
        out.push_str("],\"attrs\":[");
        for (i, (tier, region)) in self.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"tier\":\"{tier}\",\"region\":\"{region}\"}}"));
        }
        out.push_str("]}");
        out
    }

    /// Ids matching the read filter.
    pub fn matching(&self) -> Vec<u32> {
        (0..self.attrs.len() as u32)
            .filter(|&id| {
                let (tier, region) = self.attrs[id as usize];
                tier == "gold" && (region == "eu" || region == "us")
            })
            .collect()
    }

    /// Request bytes of a read op (kNN or range).
    pub fn read_bytes(&self, op: Op) -> &[u8] {
        match op {
            Op::Knn(p) => &self.knn_requests[p as usize],
            Op::Range(p) => &self.range_requests[p as usize],
            _ => unreachable!("not a read op: {op:?}"),
        }
    }
}

/// Attributes of an inserted set: never matched by the read filter, and
/// unique per insert so the post-run check can find each one alone.
pub fn insert_body(tokens: &[TokenId], bench_id: u64) -> String {
    format!(
        "{{\"tokens\":{},\"attrs\":{{\"tier\":\"new\",\"region\":\"zz\",\"bench_id\":\"{bench_id}\"}}}}",
        tokens_json(tokens)
    )
}

/// A kNN body that finds insert `bench_id` by its unique attribute.
pub fn find_inserted_body(tokens: &[TokenId], bench_id: u64) -> String {
    format!(
        "{{\"query\":{},\"k\":1,\"filter\":{{\"eq\":{{\"key\":\"bench_id\",\"value\":\"{bench_id}\"}}}}}}",
        tokens_json(tokens)
    )
}

pub fn tokens_json(tokens: &[TokenId]) -> String {
    let mut out = String::with_capacity(tokens.len() * 6 + 2);
    out.push('[');
    for (i, t) in tokens.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&t.to_string());
    }
    out.push(']');
    out
}

/// An HTTP/1.1 keep-alive request with a `Content-Length` body.
pub fn http_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn read_request(workload: Workload, query: &[TokenId]) -> Vec<u8> {
    let q = tokens_json(query);
    match workload {
        Workload::KnnExact => http_request("POST", "/knn", &format!("{{\"query\":{q},\"k\":{K}}}")),
        Workload::ApproxPrefilter => http_request(
            "POST",
            "/knn",
            &format!(
                "{{\"query\":{q},\"k\":{K},\"mode\":\"prefilter\",\"bands\":{},\"rows\":{}}}",
                PREFILTER.0, PREFILTER.1
            ),
        ),
        Workload::NsFilteredRw => http_request(
            "POST",
            &format!("/ns/{NS_NAME}/knn"),
            &format!("{{\"query\":{q},\"k\":{K},\"filter\":{NS_FILTER}}}"),
        ),
    }
}

/// Long enough that no phase wraps in practice; phases wrap if they do.
const OPS_LEN: usize = 200_000;

fn op_sequence(workload: Workload, seed: u64, pool: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, 2);
    let mut ops = Vec::with_capacity(OPS_LEN);
    let mut writes = 0usize;
    // Reads cycle through the pool so each query is used equally often.
    let mut next_read = 0usize;
    let mut read = || {
        let p = next_read as u32;
        next_read = (next_read + 1) % pool;
        p
    };
    while ops.len() < OPS_LEN {
        match workload {
            Workload::KnnExact => {
                let p = read();
                ops.push(if rng.below(10) < 7 {
                    Op::Knn(p)
                } else {
                    Op::Range(p)
                });
            }
            Workload::ApproxPrefilter => ops.push(Op::Knn(read())),
            Workload::NsFilteredRw => {
                if rng.below(10) < 8 {
                    ops.push(Op::Knn(read()));
                } else {
                    // The first write is an insert; after that half are
                    // deletes (of sets this run inserted).
                    ops.push(if writes == 0 || rng.below(2) == 0 {
                        Op::Insert(rng.below(pool) as u32)
                    } else {
                        Op::Delete
                    });
                    writes += 1;
                    if writes.is_multiple_of(SNAPSHOT_EVERY) {
                        ops.push(Op::Snapshot);
                    }
                }
            }
        }
    }
    ops
}
