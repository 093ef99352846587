//! `les3-perfbench`: drives the real `les3-serve` over loopback HTTP and
//! prints end-to-end metrics (`--trace 0`) or the per-layer ledger of an
//! in-process traced replay (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload knn-exact --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use les3_perfbench::load::{Ctx, Sample};
use les3_perfbench::net::{build_server, Conn, Server};
use les3_perfbench::oracle::Oracle;
use les3_perfbench::trace::{self, median};
use les3_perfbench::workload::{
    http_request, Class, Data, Op, Workload, ALL, BIG_GROUPS, DEFAULT_SEED, NS_NAME, SIDECAR,
};

/// Untimed closed-loop warm-up before the measured phases.
const WARMUP: Duration = Duration::from_secs(2);
/// The closed-loop metrics are medians over windows of this length, so
/// a stall of the host for a few seconds moves them less than one
/// figure over the whole loop would.
const WINDOW: Duration = Duration::from_secs(3);
/// Share of `--seconds` spent in the closed loop, which gives every
/// end-to-end timing; the rest is the open loop, whose figures are
/// printed only. On a 2-CPU host a lone request fans out across both
/// workers, and at open-loop rates low enough not to queue in two
/// connections the open-loop kNN median spread about three times as
/// widely between runs as the closed loop's (requests in pairs, one
/// worker each); see `README.md`.
const CLOSED_SHARE: f64 = 0.6;
/// Op indices the closed and open loops start at, fixed so that a seed
/// sends the same ops in each phase on every run (the warm-up starts at
/// op 0; no phase gets near the next one's start).
const CLOSED_START: usize = 50_000;
const OPEN_START: usize = 100_000;
/// Open-loop phase of the traced run (for the generator's own figures).
const TRACE_OPEN: Duration = Duration::from_secs(2);
/// Latency percentile reported next to the median. The sample counts
/// would support a 95th, but the kNN cost of the Zipf queries is
/// heavy-tailed and a 95th percentile swung by a third between runs.
const TAIL: f64 = 0.9;

/// `(name, unit, span or counter it comes from)` of every per-layer
/// metric (`--trace 1`). Time metrics are medians of per-request self
/// times; counters are per-request means.
const PER_LAYER: [(&str, &str, &str); 37] = [
    ("net.http.parse_us", "us", "net.http"),
    ("net.wire.decode_us", "us", "net.wire.decode"),
    ("net.wire.encode_us", "us", "net.wire.encode"),
    ("net.response_bytes", "bytes", "net.response_bytes"),
    ("net.overhead_us", "us", ""),
    ("net.decode_ns_spec_ms", "ms", "net.decode_ns_spec"),
    ("serve.overhead_us", "us", "serve"),
    ("index.phase_a_us", "us", "index.phase_a"),
    ("index.bounds_us", "us", "index.bounds"),
    ("index.verify_us", "us", "index.verify"),
    ("index.columns_checked", "count", "index.columns_checked"),
    ("index.candidates", "count", "index.candidates"),
    ("index.sims_computed", "count", "index.sims_computed"),
    ("index.groups_verified", "count", "index.groups_verified"),
    (
        "index.pruning_efficiency",
        "ratio",
        "index.pruning_efficiency",
    ),
    ("par.knn_w2_us", "us", "par.knn_w2"),
    ("metadata.eval_us", "us", "metadata.eval"),
    ("metadata.matching", "count", "metadata.matching"),
    ("namespace.knn_us", "us", "namespace.knn"),
    ("namespace.insert_us", "us", "namespace.insert"),
    ("namespace.delete_us", "us", "namespace.delete"),
    ("namespace.create_ms", "ms", "namespace.create"),
    ("persist.snapshot_ms", "ms", "persist.snapshot"),
    ("persist.segment_bytes", "bytes", "persist.segment_bytes"),
    ("approx.candidates_us", "us", "approx.candidates"),
    ("approx.survivors", "count", "approx.survivors"),
    ("approx.knn_us", "us", "approx.knn"),
    ("approx.build_ms", "ms", "approx.build"),
    ("index.build_ms", "ms", "index.build"),
    ("mem.tgm_bytes", "bytes", "mem.tgm_bytes"),
    ("mem.index_bytes", "bytes", "mem.index_bytes"),
    ("mem.sidecar_bytes", "bytes", "mem.sidecar_bytes"),
    ("mem.meta_bytes", "bytes", "mem.meta_bytes"),
    ("loadgen.late_p99_ms", "ms", ""),
    ("loadgen.offered_rps", "1/s", ""),
    ("trace.coverage", "ratio", ""),
    ("trace.overhead", "ratio", ""),
];

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?
            }
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(args)
}

/// What one run reports.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    /// Exact-answer mismatches: these make the command exit non-zero.
    mismatches: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("les3-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench lives in the repository root")
        .to_path_buf();
    let bin = match build_server(&root) {
        Ok(bin) => bin,
        Err(e) => {
            eprintln!("les3-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut reports = Vec::new();
    for &workload in &args.workloads {
        let work = root.join(".bench_out").join(workload.name());
        if let Err(e) = std::fs::create_dir_all(&work) {
            eprintln!("les3-perfbench: cannot create {}: {e}", work.display());
            return ExitCode::FAILURE;
        }
        print_header(workload, &args, &root);
        let report = if args.trace {
            traced_run(workload, &args, &bin, &work)
        } else {
            untraced_run(workload, &args, &bin, &work)
        };
        match report {
            Ok(report) => {
                for (name, value, unit) in &report.metrics {
                    println!("{:<26} {value:>14.4} {unit}", name);
                }
                println!(
                    "{:<26} {:>14} ({} failed, {} exact mismatches)",
                    "attempted", report.attempted, report.failed, report.mismatches
                );
                if args.workloads.len() > 1 {
                    println!("{}", report.json());
                }
                reports.push(report);
            }
            Err(e) => {
                eprintln!("les3-perfbench: {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    let mismatches: usize = reports.iter().map(|r| r.mismatches).sum();
    if let [report] = reports.as_slice() {
        println!("{}", report.json());
    } else {
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{}}}}",
            reports.iter().all(|r| r.correct),
            reports.iter().map(|r| r.attempted).sum::<usize>(),
            reports.iter().map(|r| r.failed).sum::<usize>()
        );
    }
    if mismatches > 0 {
        eprintln!("les3-perfbench: {mismatches} answers differ from the exact oracle");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (no .git in this checkout)".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(name) => std::fs::read_to_string(git.join(name))
            .map(|r| r.trim().to_string())
            .unwrap_or_else(|_| head.to_string()),
        None => head.to_string(),
    }
}

fn server_args(workload: Workload, work: &Path) -> Vec<String> {
    let db = work.join("db.txt").display().to_string();
    let groups = BIG_GROUPS.to_string();
    match workload {
        Workload::KnnExact => vec!["--load".into(), db, "--groups".into(), groups],
        Workload::ApproxPrefilter => vec![
            "--load".into(),
            db,
            "--groups".into(),
            groups,
            "--approx".into(),
            format!("{}x{}", SIDECAR.0, SIDECAR.1),
        ],
        // The corpus arrives by `PUT /ns/bench`; the default route gets a
        // token dataset.
        Workload::NsFilteredRw => vec![
            "--sets".into(),
            "64".into(),
            "--groups".into(),
            "1".into(),
            "--save-index".into(),
            work.join("index").display().to_string(),
        ],
    }
}

fn print_header(workload: Workload, args: &Args, root: &Path) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!("# workload     {} ({})", workload.name(), workload.why());
    println!("# seed         {}", args.seed);
    println!("# nproc        {nproc}");
    println!("# revision     {}", git_revision(root));
    println!("# profile      {profile}");
    println!(
        "# dataset      {} Zipf sets (avg size 12, alpha 1.1, universe {}), {} pool queries",
        workload.n_sets(),
        workload.n_sets() / 5,
        workload.pool_size()
    );
    println!(
        "# phases       {:.1} s closed loop (2 connections) + {:.1} s open loop at {} req/s{}",
        args.seconds * CLOSED_SHARE,
        args.seconds * (1.0 - CLOSED_SHARE),
        workload.open_rate(),
        if args.trace {
            " (traced run: serial replay + in-process ledger)"
        } else {
            ""
        }
    );
    println!(
        "# server       les3-serve {} --port 0",
        server_args(
            workload,
            Path::new(".bench_out").join(workload.name()).as_path()
        )
        .join(" ")
    );
}

/// Spawns the server and brings it to the workload's ready state.
fn start(workload: Workload, data: &Data, bin: &Path, work: &Path) -> Result<Server, String> {
    if workload == Workload::NsFilteredRw {
        let _ = std::fs::remove_dir_all(work.join("index"));
    }
    let server = Server::spawn(bin, &server_args(workload, work)).map_err(|e| e.to_string())?;
    server
        .wait_healthy(Duration::from_secs(120))
        .map_err(|e| e.to_string())?;
    if workload == Workload::NsFilteredRw {
        let body = data.ns_put_body();
        let request = http_request("PUT", &format!("/ns/{NS_NAME}"), &body);
        let mut conn = Conn::connect(server.addr).map_err(|e| e.to_string())?;
        match conn.call(&request) {
            Ok((200, _)) => {}
            Ok((status, body)) => {
                return Err(format!(
                    "PUT /ns/{NS_NAME} answered {status}: {}",
                    String::from_utf8_lossy(&body)
                ))
            }
            Err(e) => return Err(format!("PUT /ns/{NS_NAME}: {e}")),
        }
    }
    Ok(server)
}

fn prepare(workload: Workload, seed: u64, work: &Path) -> Result<(Data, Oracle), String> {
    let start = Instant::now();
    let data = Data::generate(workload, seed);
    if workload != Workload::NsFilteredRw {
        std::fs::write(work.join("db.txt"), data.db_text()).map_err(|e| e.to_string())?;
    }
    let oracle = Oracle::build(&data);
    println!(
        "# prepared     data + oracle in {:.2} s",
        start.elapsed().as_secs_f64()
    );
    Ok((data, oracle))
}

fn connect2(server: &Server) -> Result<[Conn; 2], String> {
    let a = Conn::connect(server.addr).map_err(|e| e.to_string())?;
    let b = Conn::connect(server.addr).map_err(|e| e.to_string())?;
    Ok([a, b])
}

/// Nearest-rank percentile; failed samples count as infinitely slow.
fn percentile(samples: &[&Sample], p: f64) -> f64 {
    let mut ms: Vec<f64> = samples
        .iter()
        .map(|s| {
            if s.ok {
                s.latency.as_secs_f64() * 1e3
            } else {
                f64::INFINITY
            }
        })
        .collect();
    if ms.is_empty() {
        return f64::NAN;
    }
    ms.sort_by(f64::total_cmp);
    let rank = ((p * ms.len() as f64).ceil() as usize).clamp(1, ms.len());
    ms[rank - 1]
}

fn of_class(phase: &[Sample], c: Class) -> Vec<&Sample> {
    phase.iter().filter(|s| s.class == c).collect()
}

/// How late the open loop sent its 99th-percentile request, in ms: a
/// late generator voids the run's latencies.
fn late_p99(samples: &[Sample]) -> f64 {
    let mut lates: Vec<f64> = samples.iter().map(|s| s.late.as_secs_f64() * 1e3).collect();
    lates.sort_by(f64::total_cmp);
    lates.get(lates.len() * 99 / 100).copied().unwrap_or(0.0)
}

fn untraced_run(
    workload: Workload,
    args: &Args,
    bin: &Path,
    work: &Path,
) -> Result<Report, String> {
    let (data, oracle) = prepare(workload, args.seed, work)?;
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..workload.setup_reps() {
        drop(server.take());
        let t0 = Instant::now();
        server = Some(start(workload, &data, bin, work)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one start-up");
    let ctx = Ctx::new(&data, &oracle);
    let mut conns = connect2(&server)?;
    let warm = ctx.phase(&mut conns, 0, WARMUP, None);
    let cpu_before = cpu_ticks();
    let closed_for = Duration::from_secs_f64(args.seconds * CLOSED_SHARE);
    let closed = ctx.phase(&mut conns, CLOSED_START, closed_for, None);
    let open_for = Duration::from_secs_f64(args.seconds * (1.0 - CLOSED_SHARE));
    let open = ctx.phase(&mut conns, OPEN_START, open_for, Some(workload.open_rate()));
    let (mut attempted, mut failed) = if workload == Workload::NsFilteredRw {
        ctx.check_writes(&mut conns[0])
    } else {
        (0, 0)
    };
    let cpu_after = cpu_ticks();
    let rss = server.peak_rss_mb().unwrap_or(f64::NAN);
    drop(conns);
    drop(server);
    let _ = std::fs::remove_file(work.join("db.txt"));
    let _ = std::fs::remove_dir_all(work.join("index"));

    let all: Vec<&Sample> = warm
        .samples
        .iter()
        .chain(&closed.samples)
        .chain(&open.samples)
        .collect();
    attempted += all.len();
    failed += all.iter().filter(|s| !s.ok).count();
    let recalls: Vec<f64> = all.iter().filter_map(|s| s.recall).collect();
    let recall = recalls.iter().sum::<f64>() / recalls.len().max(1) as f64;
    // Split the closed loop's ops by the window they ended in.
    let width = WINDOW.as_secs_f64();
    let n_windows = (closed_for.as_secs_f64() / width).floor().max(1.0) as usize;
    let mut windows: Vec<Vec<&Sample>> = vec![Vec::new(); n_windows];
    for s in &closed.samples {
        if let Some(w) = windows.get_mut((s.done.as_secs_f64() / width) as usize) {
            w.push(s);
        }
    }
    let windows: Vec<Vec<&Sample>> = windows.into_iter().filter(|w| w.len() > 1).collect();
    // Per window: the successful ops after its first over the time they
    // took, and the kNN latency percentiles.
    let mut qps: Vec<f64> = windows
        .iter()
        .map(|w| {
            let done: Vec<Duration> = w.iter().filter(|s| s.ok).map(|s| s.done).collect();
            let first = done.iter().min().copied().unwrap_or_default();
            let last = done.iter().max().copied().unwrap_or_default();
            done.len().saturating_sub(1) as f64 / (last - first).as_secs_f64().max(1e-9)
        })
        .collect();
    let knn_windows: Vec<Vec<&Sample>> = windows
        .iter()
        .map(|w| {
            w.iter()
                .copied()
                .filter(|s| s.class == Class::Knn)
                .collect()
        })
        .collect();
    let mut knn_p50: Vec<f64> = knn_windows.iter().map(|w| percentile(w, 0.5)).collect();
    let mut knn_tail: Vec<f64> = knn_windows.iter().map(|w| percentile(w, TAIL)).collect();
    let knn_samples: usize = knn_windows.iter().map(Vec::len).sum();
    // The end-to-end metrics, in `BENCHMARK.json` order.
    let metrics = vec![
        ("setup_s".to_string(), median(&mut setups), "s"),
        ("qps".to_string(), median(&mut qps), "1/s"),
        ("knn_p50_ms".to_string(), median(&mut knn_p50), "ms"),
        ("knn_p90_ms".to_string(), median(&mut knn_tail), "ms"),
        ("recall".to_string(), recall, "ratio"),
        ("peak_rss_mb".to_string(), rss, "MiB"),
    ];
    // Per-class figures, printed but not part of the JSON line.
    let mut extra = vec![
        (
            "error_rate".to_string(),
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        (
            "loadgen.late_p99_ms".to_string(),
            late_p99(&open.samples),
            "ms",
        ),
        (
            "loadgen.offered_rps".to_string(),
            open.samples.len() as f64 / open_for.as_secs_f64(),
            "1/s",
        ),
        (
            "closed.knn_samples".to_string(),
            knn_samples as f64,
            "count",
        ),
    ];
    if let (Some((steal0, total0)), Some((steal1, total1))) = (cpu_before, cpu_after) {
        let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        extra.push(("host.steal_share".to_string(), share, "ratio"));
    }
    for (name, c) in [
        ("knn", Class::Knn),
        ("range", Class::Range),
        ("write", Class::Write),
        ("snapshot", Class::Snapshot),
    ] {
        let samples = of_class(&open.samples, c);
        if !samples.is_empty() {
            extra.push((
                format!("open.{name}_p50_ms"),
                percentile(&samples, 0.5),
                "ms",
            ));
            extra.push((
                format!("open.{name}_p90_ms"),
                percentile(&samples, 0.9),
                "ms",
            ));
            extra.push((
                format!("open.{name}_samples"),
                samples.len() as f64,
                "count",
            ));
        }
    }
    for (name, value, unit) in extra {
        println!("# {name:<24} {value:>14.4} {unit}");
    }
    let mismatches = ctx.mismatches.load(std::sync::atomic::Ordering::Relaxed);
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        mismatches,
        metrics,
    })
}

fn traced_run(workload: Workload, args: &Args, bin: &Path, work: &Path) -> Result<Report, String> {
    let (data, oracle) = prepare(workload, args.seed, work)?;
    let n_ops = workload.replay_ops();
    // Serial one-connection HTTP pass over the replayed ops, then a short
    // open loop for the generator's own figures.
    let server = start(workload, &data, bin, work)?;
    let ctx = Ctx::new(&data, &oracle);
    let mut conns = connect2(&server)?;
    let mut http_rt = Vec::with_capacity(n_ops);
    let mut attempted = 0;
    let mut failed = 0;
    for &op in data.ops.iter().take(n_ops) {
        let t0 = Instant::now();
        let outcome = ctx.execute(&mut conns[0], op);
        http_rt.push(t0.elapsed().as_secs_f64() * 1e9);
        attempted += 1;
        failed += usize::from(!outcome.ok);
    }
    let open = ctx.phase(&mut conns, n_ops, TRACE_OPEN, Some(workload.open_rate()));
    attempted += open.samples.len();
    failed += open.samples.iter().filter(|s| !s.ok).count();
    let offered = open.samples.len() as f64 / TRACE_OPEN.as_secs_f64();
    drop(conns);
    drop(server);
    let _ = std::fs::remove_file(work.join("db.txt"));
    let _ = std::fs::remove_dir_all(work.join("index"));

    let replay = trace::replay(&data, n_ops, work);
    let spans = &replay.tracer.spans;
    let selfs = trace::self_times(spans);
    let mut counters: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for &(_, name, value) in &replay.tracer.counts {
        counters.entry(name).or_default().push(value);
    }
    // net.overhead: serial HTTP round trip minus the in-process front
    // round trip of the same read.
    let serve_ns: BTreeMap<u32, f64> = spans
        .iter()
        .filter(|s| s.name == "serve")
        .map(|s| (s.rid, (s.end_ns - s.start_ns) as f64))
        .collect();
    let mut net_overhead: Vec<f64> = data
        .ops
        .iter()
        .take(n_ops)
        .enumerate()
        .filter(|(_, op)| matches!(op, Op::Knn(_) | Op::Range(_)))
        .filter_map(|(i, _)| Some(http_rt[i] - serve_ns.get(&(i as u32 + 1))?))
        .collect();
    let mut http_reads: Vec<f64> = data
        .ops
        .iter()
        .take(n_ops)
        .enumerate()
        .filter(|(_, op)| matches!(op, Op::Knn(_) | Op::Range(_)))
        .map(|(i, _)| http_rt[i])
        .collect();
    let mut serve_reads: Vec<f64> = serve_ns.values().copied().collect();
    println!(
        "# reads        HTTP round trip p50 {:.1} us, in-process serve round trip p50 {:.1} us",
        median(&mut http_reads) / 1e3,
        median(&mut serve_reads) / 1e3
    );
    let mut coverage = trace::coverage(spans);
    let mut metrics = Vec::new();
    for (name, unit, source) in PER_LAYER {
        let value = match name {
            "net.overhead_us" => median(&mut net_overhead) / 1e3,
            "loadgen.late_p99_ms" => late_p99(&open.samples),
            "loadgen.offered_rps" => offered,
            "trace.coverage" => median(&mut coverage),
            "trace.overhead" => {
                replay.traced.as_secs_f64() / replay.untraced.as_secs_f64().max(1e-9)
            }
            _ => match unit {
                "us" | "ms" => {
                    let scale = if unit == "us" { 1e3 } else { 1e6 };
                    let mut v: Vec<f64> = selfs
                        .get(source)
                        .map(|per| per.iter().map(|&(_, ns)| ns).collect())
                        .unwrap_or_default();
                    median(&mut v) / scale
                }
                _ => counters
                    .get(source)
                    .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64),
            },
        };
        metrics.push((name.to_string(), value, unit));
    }
    let spans_path = work.join("spans.jsonl");
    trace::write_spans(spans, &spans_path).map_err(|e| e.to_string())?;
    let sums = replay.sums;
    let record = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"ops\":{n_ops},\"columns_checked\":{},\"candidates\":{},\"sims_computed\":{}}}\n",
        workload.name(),
        args.seed,
        sums.columns_checked,
        sums.candidates,
        sums.sims_computed
    );
    let counters_path = work.join(format!("counters-seed{}.json", args.seed));
    std::fs::write(&counters_path, &record).map_err(|e| e.to_string())?;
    println!(
        "# spans        {} written to .bench_out/{}/spans.jsonl",
        spans.len(),
        workload.name()
    );
    println!("# counters     {}", record.trim());
    println!(
        "# replay       untraced {:.3} s, traced {:.3} s",
        replay.untraced.as_secs_f64(),
        replay.traced.as_secs_f64()
    );
    let mismatches = ctx.mismatches.load(std::sync::atomic::Ordering::Relaxed);
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        mismatches,
        metrics,
    })
}

/// `(steal, total)` CPU ticks of the host so far, from `/proc/stat`:
/// time other guests took from this machine's CPUs shows as noise in
/// every timing, so each run prints its share.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}
