//! The answer oracle: every response is checked here before it counts
//! as a success.
//!
//! * `knn-exact`: the response must equal, hits and `stats` bit for bit,
//!   `Les3Index::knn_with` / `range_with` over the same database and
//!   groups (compared as bytes first, then decoded).
//! * `ns-filtered-rw` reads: similarities must equal the brute-force
//!   filtered top-k bit for bit, and every id must be a matching set
//!   with exactly that similarity (ids tied at the k-th similarity are
//!   equally correct).
//! * `approx-prefilter`: every hit must carry its exact similarity, and
//!   the list may differ from the exact answer only by omission.

use les3_core::sim::Jaccard;
use les3_core::{Les3Index, Partitioning, QueryScratch, SearchResult, Similarity};
use les3_data::TokenId;
use les3_net::json::Json;
use les3_net::wire;

use crate::workload::{Data, Op, Workload, BIG_GROUPS, DELTA, K};

/// A checked response.
pub struct Verdict {
    pub ok: bool,
    /// Tie-aware recall of a kNN answer (kNN ops only).
    pub recall: Option<f64>,
    /// A `200` whose answer an exact workload's oracle rejects.
    pub mismatch: bool,
}

impl Verdict {
    fn fail() -> Verdict {
        Verdict {
            ok: false,
            recall: None,
            mismatch: false,
        }
    }
}

pub struct Oracle {
    workload: Workload,
    /// Exact kNN answer per pool entry (`knn-exact`, `approx-prefilter`).
    knn: Vec<SearchResult>,
    knn_body: Vec<String>,
    range: Vec<SearchResult>,
    range_body: Vec<String>,
    /// Matching sets ranked by similarity per pool entry (namespace).
    ranked: Vec<Vec<(u32, f64)>>,
}

/// The flat index `les3-serve --load FILE --groups 1250` builds.
fn build_flat(data: &Data) -> Les3Index<Jaccard> {
    let part = Partitioning::round_robin(data.db.len(), BIG_GROUPS);
    Les3Index::build(data.db.clone(), part, Jaccard)
}

impl Oracle {
    pub fn build(data: &Data) -> Oracle {
        let mut oracle = Oracle {
            workload: data.workload,
            knn: Vec::new(),
            knn_body: Vec::new(),
            range: Vec::new(),
            range_body: Vec::new(),
            ranked: Vec::new(),
        };
        match data.workload {
            Workload::KnnExact | Workload::ApproxPrefilter => {
                let index = build_flat(data);
                let with_range = data.workload == Workload::KnnExact;
                // Two threads, each over half the pool.
                let half = data.pool.len().div_ceil(2);
                let answers: Vec<(SearchResult, Option<SearchResult>)> = std::thread::scope(|s| {
                    let workers: Vec<_> = data
                        .pool
                        .chunks(half)
                        .map(|chunk| {
                            let index = &index;
                            s.spawn(move || {
                                let mut scratch = QueryScratch::new();
                                chunk
                                    .iter()
                                    .map(|q| {
                                        let knn = index.knn_with(q, K, &mut scratch);
                                        let range = with_range
                                            .then(|| index.range_with(q, DELTA, &mut scratch));
                                        (knn, range)
                                    })
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    workers
                        .into_iter()
                        .flat_map(|w| w.join().expect("oracle thread panicked"))
                        .collect()
                });
                for (knn, range) in answers {
                    oracle.knn.push(knn);
                    oracle.range.extend(range);
                }
                oracle.knn_body = oracle.knn.iter().map(body_of).collect();
                oracle.range_body = oracle.range.iter().map(body_of).collect();
            }
            Workload::NsFilteredRw => {
                let matching = data.matching();
                oracle.ranked = data
                    .pool
                    .iter()
                    .map(|q| {
                        let mut ranked: Vec<(u32, f64)> = matching
                            .iter()
                            .map(|&id| (id, Jaccard.eval(q, data.db.set(id))))
                            .collect();
                        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                        ranked
                    })
                    .collect();
            }
        }
        oracle
    }

    /// Checks the response to read op `op` (kNN or range).
    pub fn check_read(&self, data: &Data, op: Op, status: u16, body: &[u8]) -> Verdict {
        if status != 200 {
            return Verdict::fail();
        }
        let (p, is_knn) = match op {
            Op::Knn(p) => (p as usize, true),
            Op::Range(p) => (p as usize, false),
            _ => unreachable!("not a read op: {op:?}"),
        };
        match self.workload {
            Workload::KnnExact => {
                let (expected, expected_body) = if is_knn {
                    (&self.knn[p], &self.knn_body[p])
                } else {
                    (&self.range[p], &self.range_body[p])
                };
                let exact = body == expected_body.as_bytes()
                    || decode(body).is_some_and(|r| r == *expected);
                Verdict {
                    ok: exact,
                    recall: is_knn.then(|| {
                        if exact {
                            1.0
                        } else {
                            decode(body).map_or(0.0, |r| recall(&r.hits, &expected.hits))
                        }
                    }),
                    mismatch: !exact,
                }
            }
            Workload::ApproxPrefilter => {
                let Some((hits, has_verdict)) = decode_with_verdict(body) else {
                    return Verdict::fail();
                };
                let ok = has_verdict
                    && approx_sound(&hits, &self.knn[p].hits, |id| {
                        exact_sim(&data.pool[p], data, id)
                    });
                Verdict {
                    ok,
                    recall: Some(if ok {
                        recall(&hits, &self.knn[p].hits)
                    } else {
                        0.0
                    }),
                    mismatch: !ok,
                }
            }
            Workload::NsFilteredRw => {
                let Some(result) = decode(body) else {
                    return Verdict::fail();
                };
                let ranked = &self.ranked[p];
                let want = ranked.len().min(K);
                let mut seen = Vec::with_capacity(want);
                let ok = result.hits.len() == want
                    && result
                        .hits
                        .iter()
                        .zip(ranked)
                        .all(|(&(id, sim), &(_, top))| {
                            let fresh = !seen.contains(&id);
                            seen.push(id);
                            fresh
                                && sim.to_bits() == top.to_bits()
                                && ranked.iter().any(|&(rid, rsim)| {
                                    rid == id && rsim.to_bits() == sim.to_bits()
                                })
                        });
                Verdict {
                    ok,
                    recall: Some(if ok { 1.0 } else { 0.0 }),
                    mismatch: !ok,
                }
            }
        }
    }
}

fn body_of(result: &SearchResult) -> String {
    wire::encode_result(result).to_string()
}

fn decode(body: &[u8]) -> Option<SearchResult> {
    let text = std::str::from_utf8(body).ok()?;
    wire::decode_result(&Json::parse(text).ok()?)
}

fn decode_with_verdict(body: &[u8]) -> Option<(Vec<(u32, f64)>, bool)> {
    let value = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    let result = wire::decode_result(&value)?;
    Some((result.hits, wire::decode_approx(&value).is_some()))
}

fn exact_sim(query: &[TokenId], data: &Data, id: u32) -> Option<f64> {
    ((id as usize) < data.db.len()).then(|| Jaccard.eval(query, data.db.set(id)))
}

/// An approximate answer is sound when each hit carries its exact
/// similarity, ids are distinct, the list is sorted, and rank `i` never
/// beats the exact rank `i` — so it differs from the exact answer only
/// by omission.
fn approx_sound(
    hits: &[(u32, f64)],
    exact: &[(u32, f64)],
    sim_of: impl Fn(u32) -> Option<f64>,
) -> bool {
    hits.len() <= K
        && hits.iter().enumerate().all(|(i, &(id, sim))| {
            sim_of(id).is_some_and(|s| s.to_bits() == sim.to_bits())
                && !hits[..i].iter().any(|&(other, _)| other == id)
                && (i == 0 || hits[i - 1].1 >= sim)
                && exact.get(i).is_some_and(|&(_, best)| sim <= best)
        })
}

/// `|returned ∩ exact top-k| / k`, where a returned hit tied with the
/// exact k-th similarity counts as in the top k.
fn recall(returned: &[(u32, f64)], exact: &[(u32, f64)]) -> f64 {
    let want = exact.len().min(K);
    if want == 0 {
        return 1.0;
    }
    let kth = exact[want - 1].1;
    let got = returned.iter().take(K).filter(|h| h.1 >= kth).count();
    got.min(want) as f64 / want as f64
}
