//! The traced run: replays a workload's request sequence in process and
//! records a span around each call into a layer's public functions.
//!
//! The benchmark cannot open spans inside the library, so a layer whose
//! time hides inside another call is split by *replaying* the inner
//! call on its own right after the outer one, and attributing it to the
//! outer span as a child: `serve` (the `ServeFront` round trip) gets the
//! engine call the front makes, `index.verify` (`knn_ctl_on` with one
//! worker) gets `group_upper_bounds_with`, which gets
//! `Tgm::group_overlaps_into`, and so on. A span's self time is its
//! duration minus its children's, so `serve`'s self time is the front's
//! overhead over the bare engine call. Replayed calls are left out of the
//! request's real-path time when the ledger's coverage is computed.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use les3_core::persist::save_index;
use les3_core::sim::Jaccard;
use les3_core::{
    ApproxParams, ApproxPolicy, Filter, FilterCandidates, Filters, Les3Index, MetadataIndex,
    Namespace, Partitioning, QueryCtl, QueryScratch, SearchStats, ServeConfig, ServeFront,
    ShardPolicy, ShardedLes3Index, SubmitOpts,
};
use les3_data::zipfian::ZipfianGenerator;
use les3_data::SetDatabase;
use les3_net::http::{find_head_end, parse_head, response_bytes};
use les3_net::json::Json;
use les3_net::wire::{self, QueryParam};

use crate::workload::{
    http_request, insert_body, Data, Op, Workload, BIG_GROUPS, NS_GROUPS, NS_NAME, NS_SETS,
    NS_SHARDS, PREFILTER, SIDECAR,
};

/// One timed call: name, start, end, parent and request id (0 = set-up).
pub struct Span {
    pub name: &'static str,
    pub rid: u32,
    pub id: u32,
    pub parent: u32,
    /// A call replayed only to split its parent's time.
    pub replayed: bool,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. Off, it runs the same calls and records
/// nothing but the work counters.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    /// `(request id, counter, value)` records.
    pub counts: Vec<(u32, &'static str, f64)>,
    stack: Vec<u32>,
    rid: u32,
    next_id: u32,
    last: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
            stack: Vec::new(),
            rid: 0,
            next_id: 1,
            last: 0,
        }
    }

    fn record<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        replayed: bool,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = parent.unwrap_or_else(|| self.stack.last().copied().unwrap_or(0));
        self.stack.push(id);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.stack.pop();
        self.spans.push(Span {
            name,
            rid: self.rid,
            id,
            parent,
            replayed,
            start_ns,
            end_ns,
        });
        self.last = id;
        out
    }

    /// Times `f` as a child of the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.record(name, None, false, f)
    }

    /// Times `f`, a call made only to split the request's time further
    /// (not on the request's real path), as a child of the open span.
    pub fn aside<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.record(name, None, true, f)
    }

    /// Times `f`, an inner call of span `parent` replayed on its own.
    pub fn replayed<T>(
        &mut self,
        parent: u32,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.record(name, Some(parent), true, f)
    }

    /// Id of the span closed last.
    pub fn last(&self) -> u32 {
        self.last
    }

    /// Times one replayed request as the root span `request`.
    pub fn request<T>(&mut self, rid: u32, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.rid = rid;
        self.span("request", f)
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push((self.rid, name, value));
    }

    fn stats(&mut self, stats: &SearchStats) {
        self.count("index.columns_checked", stats.columns_checked as f64);
        self.count("index.candidates", stats.candidates as f64);
        self.count("index.sims_computed", stats.sims_computed as f64);
        self.count("index.groups_verified", stats.groups_verified as f64);
    }
}

/// The namespace side of the `ns-filtered-rw` pipeline.
struct NsState {
    ns: Arc<Namespace>,
    filters: Filters,
    filter: Filter,
    meta: MetadataIndex,
    part: Partitioning,
    live: VecDeque<u32>,
    next_bench_id: u64,
    inserted: usize,
    snapshot_dir: PathBuf,
}

/// The in-process twin of the server a workload runs against: the same
/// engine, serving front configuration and namespace.
pub struct Pipeline {
    workload: Workload,
    index: Arc<Les3Index<Jaccard>>,
    front: ServeFront<Les3Index<Jaccard>>,
    ns: Option<NsState>,
    scratch: QueryScratch,
    /// Phase A's per-group overlap counts.
    overlaps: Vec<u32>,
}

/// `les3-serve`'s front defaults (`--max-batch 64 --max-wait-ms 1
/// --queue-capacity 1024`, workers and intra-query fan-out adaptive).
fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: 64,
        max_wait: Duration::from_millis(1),
        workers: 0,
        queue_capacity: 1024,
        intra_workers: 0,
    }
}

const NONE: QueryCtl<'static> = QueryCtl::NONE;

impl Pipeline {
    /// Builds the pipeline, tracing set-up under request id 0. Set-up
    /// and memory figures land in `t`.
    pub fn build(data: &Data, t: &mut Tracer, work_dir: &Path) -> Pipeline {
        let workload = data.workload;
        let (index, ns) = match workload {
            Workload::KnnExact | Workload::ApproxPrefilter => {
                let db = data.db.clone();
                let part = Partitioning::round_robin(db.len(), BIG_GROUPS);
                let mut index = t.span("index.build", |_| Les3Index::build(db, part, Jaccard));
                if workload == Workload::ApproxPrefilter {
                    let params = ApproxParams {
                        bands: SIDECAR.0,
                        rows: SIDECAR.1,
                        ..ApproxParams::default()
                    };
                    t.span("approx.build", |_| index.enable_approx(params));
                }
                t.count("mem.tgm_bytes", index.tgm().size_in_bytes() as f64);
                t.count(
                    "mem.index_bytes",
                    (index.index_size_in_bytes() + index.db().size_in_bytes()) as f64,
                );
                let sidecar = index.approx_sidecar().map_or(0, |s| s.encode().len());
                t.count("mem.sidecar_bytes", sidecar as f64);
                (index, None)
            }
            Workload::NsFilteredRw => {
                // `les3-serve --sets 64 --groups 1`: a token default route.
                let db = ZipfianGenerator::new(64, 2_000, 12.0, 1.1).generate(42);
                let default = Les3Index::build(db, Partitioning::round_robin(64, 1), Jaccard);
                (default, Some(()))
            }
        };
        let index = Arc::new(index);
        let front = ServeFront::from_arc(Arc::clone(&index), serve_config());
        let ns = ns.map(|()| {
            let body = data.ns_put_body();
            let spec = t.span("net.decode_ns_spec", |_| {
                wire::decode_ns_spec(body.as_bytes()).expect("the PUT body decodes")
            });
            let sets = spec.sets.clone();
            let ns = t.span("namespace.create", |_| {
                front
                    .namespaces()
                    .create(NS_NAME, spec)
                    .expect("namespace creation succeeds")
            });
            let create = t.last();
            let db = SetDatabase::from_sets(sets);
            let part = Partitioning::round_robin(db.len(), NS_GROUPS);
            let sharded = t.replayed(create, "index.build", |_| {
                ShardedLes3Index::build(
                    db,
                    part.clone(),
                    Jaccard,
                    NS_SHARDS,
                    ShardPolicy::Contiguous,
                )
            });
            let mut meta = MetadataIndex::new();
            for &(tier, region) in &data.attrs {
                meta.push(&[
                    ("tier".to_string(), tier.to_string()),
                    ("region".to_string(), region.to_string()),
                ]);
            }
            t.count("mem.tgm_bytes", sharded.index_size_in_bytes() as f64);
            t.count(
                "mem.index_bytes",
                (sharded.index_size_in_bytes() + sharded.db().size_in_bytes()) as f64,
            );
            t.count("mem.meta_bytes", meta.encode().len() as f64);
            let filters = wire::decode_filters(
                &Json::parse(crate::workload::NS_FILTER).expect("filter JSON"),
            )
            .expect("the read filter decodes");
            NsState {
                ns,
                filter: Filter::And(filters.0.clone()),
                filters,
                meta,
                part,
                live: VecDeque::new(),
                next_bench_id: 0,
                inserted: 0,
                snapshot_dir: work_dir.join("replay-snapshot"),
            }
        });
        Pipeline {
            workload,
            index,
            front,
            ns,
            scratch: QueryScratch::new(),
            overlaps: Vec::new(),
        }
    }

    /// Replays op `op` as request `rid`.
    pub fn replay(&mut self, t: &mut Tracer, data: &Data, rid: u32, op: Op) {
        t.request(rid, |t| match op {
            Op::Knn(_) | Op::Range(_) => self.read(t, data, op),
            Op::Insert(p) => self.insert(t, data, p),
            Op::Delete => self.delete(t, data),
            Op::Snapshot => self.snapshot(t),
        });
        if op == Op::Snapshot {
            let ns = self.ns.as_ref().expect("snapshots are namespace ops");
            t.count("persist.segment_bytes", dir_bytes(&ns.snapshot_dir) as f64);
        }
    }

    fn read(&mut self, t: &mut Tracer, data: &Data, op: Op) {
        let request = data.read_bytes(op);
        let body = parse_http(t, request);
        let q = t.span("net.wire.decode", |_| {
            match op {
                Op::Knn(_) => wire::decode_knn(body),
                _ => wire::decode_range(body),
            }
            .expect("request bodies decode")
        });
        let query = q.query.clone();
        let opts = SubmitOpts {
            mode: q.mode,
            ..SubmitOpts::default()
        };
        let front = &self.front;
        let (result, info) = t
            .span("serve", |_| match (&self.ns, q.param) {
                (Some(ns), QueryParam::Knn(k)) => front
                    .submit_ns_knn(NS_NAME, query, k, ns.filters.clone(), opts)
                    .wait_full(),
                (None, QueryParam::Knn(k)) => front.submit_knn_opts(query, k, opts).wait_full(),
                (_, QueryParam::Range(delta)) => {
                    front.submit_range_opts(query, delta, opts).wait_full()
                }
            })
            .expect("the in-process front answers");
        let serve = t.last();
        let (index, scratch) = (&self.index, &mut self.scratch);
        match (self.workload, q.param) {
            (Workload::KnnExact, param) => {
                let run = |workers: usize, scratch: &mut QueryScratch| match param {
                    QueryParam::Knn(k) => index.knn_ctl_on(workers, &q.query, k, scratch, &NONE),
                    QueryParam::Range(d) => {
                        index.range_ctl_on(workers, &q.query, d, scratch, &NONE)
                    }
                };
                let engine = match param {
                    QueryParam::Knn(_) => "par.knn_w2",
                    QueryParam::Range(_) => "par.range_w2",
                };
                // The call the front makes for a lone request on 2 CPUs.
                t.replayed(serve, engine, |_| run(2, scratch))
                    .expect("uninterrupted");
                // The sequential engine, split into its three phases.
                let res = t
                    .aside("index.verify", |_| run(1, scratch))
                    .expect("uninterrupted");
                let verify = t.last();
                let mut stats = SearchStats::default();
                t.replayed(verify, "index.bounds", |_| {
                    index.group_upper_bounds_with(&q.query, &mut stats, scratch)
                });
                let bounds = t.last();
                let overlaps = &mut self.overlaps;
                t.replayed(bounds, "index.phase_a", |_| {
                    index.tgm().group_overlaps_into(&q.query, overlaps)
                });
                t.stats(&res.stats);
                if let QueryParam::Knn(k) = param {
                    t.count(
                        "index.pruning_efficiency",
                        res.stats.pruning_efficiency_knn(data.db.len(), k),
                    );
                }
            }
            (Workload::ApproxPrefilter, QueryParam::Knn(k)) => {
                let (res, _) = t
                    .replayed(serve, "approx.knn", |_| {
                        index.knn_approx_ctl_on(2, &q.query, k, q.mode, scratch, &NONE)
                    })
                    .expect("uninterrupted");
                let knn = t.last();
                let sidecar = index.approx_sidecar().expect("sidecar is built");
                let survivors = t.replayed(knn, "approx.candidates", |_| {
                    sidecar.candidates(&q.query, PREFILTER.0, PREFILTER.1)
                });
                t.count("approx.survivors", survivors.len() as f64);
                t.stats(&res.stats);
                t.count(
                    "index.pruning_efficiency",
                    res.stats.pruning_efficiency_knn(data.db.len(), k),
                );
            }
            (Workload::NsFilteredRw, QueryParam::Knn(k)) => {
                let ns = self.ns.as_ref().expect("namespace workload");
                let res = t
                    .replayed(serve, "namespace.knn", |_| {
                        ns.ns.knn(&q.query, k, &ns.filters, 1, &NONE)
                    })
                    .expect("uninterrupted");
                let knn = t.last();
                let cand = t.replayed(knn, "metadata.eval", |_| {
                    FilterCandidates::build(&ns.meta.eval(&ns.filter), &ns.part)
                });
                t.count("metadata.matching", cand.n_matching() as f64);
                t.stats(&res.stats);
                t.count(
                    "index.pruning_efficiency",
                    res.stats.pruning_efficiency_knn(NS_SETS + ns.inserted, k),
                );
            }
            (w, p) => unreachable!("{w:?} sends no {p:?}"),
        }
        let approx = q.mode != ApproxPolicy::Exact;
        let bytes = t.span("net.wire.encode", |_| {
            let body = if approx {
                wire::encode_result_approx(&result, &info)
            } else {
                wire::encode_result(&result)
            };
            response_bytes(200, &body.to_string(), &[], true).len()
        });
        t.count("net.response_bytes", bytes as f64);
    }

    fn insert(&mut self, t: &mut Tracer, data: &Data, p: u32) {
        let ns = self.ns.as_mut().expect("namespace workload");
        ns.next_bench_id += 1;
        let request = http_request(
            "POST",
            &format!("/ns/{NS_NAME}/insert"),
            &insert_body(&data.pool[p as usize], ns.next_bench_id),
        );
        let body = parse_http(t, &request);
        let (mut tokens, attrs) = t.span("net.wire.decode", |_| {
            wire::decode_ns_insert(body).expect("insert bodies decode")
        });
        let (id, group) = t
            .span("namespace.insert", |_| ns.ns.insert(&mut tokens, &attrs))
            .expect("inserts succeed");
        ns.live.push_back(id);
        ns.inserted += 1;
        encode(
            t,
            Json::Obj(vec![
                ("id".into(), u64::from(id).into()),
                ("group".into(), u64::from(group).into()),
            ]),
        );
    }

    fn delete(&mut self, t: &mut Tracer, data: &Data) {
        let Some(id) = self.ns.as_mut().and_then(|ns| ns.live.pop_front()) else {
            let ns = self.ns.as_ref().expect("namespace workload");
            let p = (ns.next_bench_id + 1) % data.pool.len() as u64;
            return self.insert(t, data, p as u32);
        };
        let ns = self.ns.as_ref().expect("namespace workload");
        let request = http_request(
            "POST",
            &format!("/ns/{NS_NAME}/delete"),
            &format!("{{\"id\":{id}}}"),
        );
        let body = parse_http(t, &request);
        let id = t.span("net.wire.decode", |_| {
            wire::decode_ns_delete(body).expect("delete bodies decode")
        });
        let deleted = t.span("namespace.delete", |_| ns.ns.delete(id));
        assert!(deleted, "set {id} was live");
        encode(t, Json::Obj(vec![("deleted".into(), deleted.into())]));
    }

    fn snapshot(&mut self, t: &mut Tracer) {
        let ns = self.ns.as_ref().expect("namespace workload");
        let request = http_request("POST", "/snapshot", "");
        parse_http(t, &request);
        let dir = &ns.snapshot_dir;
        t.span("persist.snapshot", |_| {
            save_index(&*self.index, &[], dir).expect("snapshot of the default route");
            self.front
                .namespaces()
                .save_all(&dir.join("ns"))
                .expect("snapshot of the namespaces");
        });
        encode(
            t,
            Json::Obj(vec![
                ("ok".into(), true.into()),
                ("path".into(), dir.display().to_string().as_str().into()),
            ]),
        );
    }

    /// Removes the snapshot directory the replay wrote.
    pub fn cleanup(&self) {
        if let Some(ns) = &self.ns {
            let _ = std::fs::remove_dir_all(&ns.snapshot_dir);
        }
    }
}

fn parse_http<'r>(t: &mut Tracer, request: &'r [u8]) -> &'r [u8] {
    let end = t.span("net.http", |_| {
        let end = find_head_end(request).expect("complete head");
        parse_head(&request[..end]).expect("valid head");
        end
    });
    &request[end..]
}

fn encode(t: &mut Tracer, body: Json) {
    let bytes = t.span("net.wire.encode", |_| {
        response_bytes(200, &body.to_string(), &[], true).len()
    });
    t.count("net.response_bytes", bytes as f64);
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

/// Summed work counters of one replay pass: these repeat exactly for a
/// given seed, so later changes can be compared on them without noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSums {
    pub columns_checked: u64,
    pub candidates: u64,
    pub sims_computed: u64,
}

impl CounterSums {
    pub fn of(t: &Tracer, from: usize) -> CounterSums {
        let mut sums = CounterSums::default();
        for &(_, name, value) in &t.counts[from..] {
            let slot = match name {
                "index.columns_checked" => &mut sums.columns_checked,
                "index.candidates" => &mut sums.candidates,
                "index.sims_computed" => &mut sums.sims_computed,
                _ => continue,
            };
            *slot += value as u64;
        }
        sums
    }
}

/// Result of the in-process replay.
pub struct Replay {
    pub tracer: Tracer,
    /// Counter sums of the first (fresh) pass.
    pub sums: CounterSums,
    pub untraced: Duration,
    pub traced: Duration,
}

/// Builds the pipeline and replays the workload's first `n_ops` ops
/// twice: untraced (counters only), then traced.
pub fn replay(data: &Data, n_ops: usize, work_dir: &Path) -> Replay {
    let mut t = Tracer::new(true);
    let mut pipeline = Pipeline::build(data, &mut t, work_dir);
    let mut plain = Tracer::new(false);
    let start = Instant::now();
    for (i, &op) in data.ops.iter().take(n_ops).enumerate() {
        pipeline.replay(&mut plain, data, i as u32 + 1, op);
    }
    let untraced = start.elapsed();
    let sums = CounterSums::of(&plain, 0);
    let start = Instant::now();
    for (i, &op) in data.ops.iter().take(n_ops).enumerate() {
        pipeline.replay(&mut t, data, i as u32 + 1, op);
    }
    let traced = start.elapsed();
    pipeline.cleanup();
    Replay {
        tracer: t,
        sums,
        untraced,
        traced,
    }
}

/// Counter sums of a fresh replay (what the traced run records).
pub fn counter_sums(data: &Data, n_ops: usize, work_dir: &Path) -> CounterSums {
    let mut t = Tracer::new(false);
    let mut pipeline = Pipeline::build(data, &mut t, work_dir);
    let from = t.counts.len();
    for (i, &op) in data.ops.iter().take(n_ops).enumerate() {
        pipeline.replay(&mut t, data, i as u32 + 1, op);
    }
    pipeline.cleanup();
    CounterSums::of(&t, from)
}

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Per-request self time of each span name, in nanoseconds:
/// `name -> [(request id, self time)]`.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<(u32, f64)>> {
    let mut child_ns: HashMap<u32, u64> = HashMap::new();
    for s in spans {
        *child_ns.entry(s.parent).or_default() += s.dur();
    }
    let mut per: BTreeMap<(&'static str, u32), f64> = BTreeMap::new();
    for s in spans {
        let own = s
            .dur()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *per.entry((s.name, s.rid)).or_default() += own as f64;
    }
    let mut out: BTreeMap<&'static str, Vec<(u32, f64)>> = BTreeMap::new();
    for ((name, rid), ns) in per {
        out.entry(name).or_default().push((rid, ns));
    }
    out
}

/// Per request, the share of its real-path time (the root span minus
/// replayed calls) that its non-replayed layer spans cover; the rest is
/// the benchmark's own glue between calls.
pub fn coverage(spans: &[Span]) -> Vec<f64> {
    let mut root: HashMap<u32, u64> = HashMap::new();
    let mut covered: HashMap<u32, u64> = HashMap::new();
    let mut replayed: HashMap<u32, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.rid > 0) {
        if s.name == "request" {
            root.insert(s.rid, s.dur());
        } else if s.replayed {
            *replayed.entry(s.rid).or_default() += s.dur();
        } else {
            *covered.entry(s.rid).or_default() += s.dur();
        }
    }
    root.iter()
        .map(|(rid, &total)| {
            let real = total.saturating_sub(replayed.get(rid).copied().unwrap_or(0));
            covered.get(rid).copied().unwrap_or(0) as f64 / real.max(1) as f64
        })
        .collect()
}

/// Writes the spans as JSON lines.
pub fn write_spans(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"rid\":{},\"id\":{},\"parent\":{},\"replayed\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.rid, s.id, s.parent, s.replayed, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
