//! The serve benchmark: one seeded workload driven through
//! `tbm_serve::ShardedServer`, reporting end-to-end host cost (`--trace 0`)
//! or a per-layer ledger measured from outside the program (`--trace 1`).
//!
//! ```text
//! cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot_flash_crowd --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; a human-readable report
//! goes to standard error. The process exits nonzero when a correctness
//! check fails. See `perfbench/README.md` for every metric.

mod drive;
mod ledger;
mod probe;
mod util;
mod workload;

use drive::Phase;
use probe::SpanLog;
use std::time::{Duration, Instant};
use tbm_blob::{FaultyBlobStore, MemBlobStore};
use util::{json_num, json_str, median, percentile};
use workload::{Backing, Catalog, Kind};

/// Fewest set-ups per run; `setup_s` is their median.
const MIN_SETUPS: usize = 7;
/// Share of `--seconds` spent on further set-ups, interleaved with the
/// measured pairs, so longer runs report `setup_s` from more samples.
const SETUP_SHARE: f64 = 0.4;
/// Fewest measured 1-worker/`nproc` pairs per run, however short `--seconds`.
const MIN_PAIRS: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    let mut out = "perfbench/out".to_owned();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--out" => out = value()?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed,
        seconds: seconds.max(1),
        trace,
        out,
    })
}

/// One named metric with its unit.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What a run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<(String, String)>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Kind::ALL.map(Kind::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let result = match args.kind {
        Kind::InteractiveChurn => run::<FaultyBlobStore<MemBlobStore>>(&args),
        _ => run::<MemBlobStore>(&args),
    };
    match result {
        Ok(outcome) => report(&args, &outcome),
        Err(e) => {
            eprintln!("perfbench: correctness check failed: {e}");
            std::process::exit(1);
        }
    }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One set-up from the seed to a ready server: render, capture, derive
/// the schedule, register. Returns the catalog and the time it took.
fn setup_once<B: Backing>(args: &Args, log: &mut SpanLog) -> (Catalog, f64) {
    let epoch = log.epoch();
    let t0 = Instant::now();
    let cat = Catalog::build(args.kind, args.seed, log);
    let server = cat.server::<B>(epoch, log);
    let secs = t0.elapsed().as_secs_f64();
    drop(server);
    (cat, secs)
}

/// Paired untraced phases at 1 worker and at `workers`, alternating which
/// runs first, until `budget` has passed (and at least `MIN_PAIRS` pairs).
fn pairs<B: Backing>(
    cat: &Catalog,
    workers: usize,
    budget: Duration,
    between: &mut dyn FnMut(),
) -> Result<Pairs, String> {
    let start = Instant::now();
    let epoch = start;
    let (mut one, mut many) = (Vec::new(), Vec::new());
    let (mut request_p50, mut request_p99) = (Vec::new(), Vec::new());
    let mut digest = None;
    while one.len() < MIN_PAIRS || start.elapsed() < budget {
        let order = if one.len() % 2 == 0 {
            [1, workers]
        } else {
            [workers, 1]
        };
        for w in order {
            let (mut p, _) =
                drive::fresh::<B>(cat, w, false, None, &mut SpanLog::new(false, epoch))?;
            if *digest.get_or_insert(p.digest) != p.digest {
                return Err(format!(
                    "behaviour digest {:016x} at {w} worker(s) differs from {:016x}",
                    p.digest,
                    digest.unwrap_or_default()
                ));
            }
            // Every phase runs the schedule at one worker, so every phase
            // times the same requests. Each phase's percentiles are kept,
            // and their medians are reported, so a noisy stretch of host
            // time shifts them only if it covers half the phases. Only the
            // first phase keeps its per-request data, so the benchmark's
            // own memory does not grow with the number of phases.
            let mut us: Vec<f64> = p
                .open_ns
                .iter()
                .chain(&p.control_ns)
                .map(|&ns| ns as f64 / 1e3)
                .collect();
            request_p50.push(percentile(&mut us, 50.0));
            request_p99.push(percentile(&mut us, 99.0));
            if !one.is_empty() {
                p.open_ns = Vec::new();
                p.control_ns = Vec::new();
                p.sessions = Vec::new();
            }
            if w == 1 {
                one.push(p);
            } else {
                many.push(p);
            }
        }
        between();
    }
    if many.is_empty() {
        // One CPU: the `nproc` side is the 1-worker side.
        many = one.iter().map(clone_phase).collect();
    }
    Ok(Pairs {
        one,
        many,
        request_p50,
        request_p99,
    })
}

/// The untraced phases of a run, and each phase's request latency
/// percentiles in µs.
struct Pairs {
    one: Vec<Phase>,
    many: Vec<Phase>,
    request_p50: Vec<f64>,
    request_p99: Vec<f64>,
}

fn clone_phase(p: &Phase) -> Phase {
    Phase {
        open_ns: p.open_ns.clone(),
        control_ns: p.control_ns.clone(),
        round_us: p.round_us.clone(),
        stats: p.stats.clone(),
        sessions: p.sessions.clone(),
        ..*p
    }
}

fn run<B: Backing>(args: &Args) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut log = SpanLog::new(args.trace, epoch);
    let (cat, first_setup) = setup_once::<B>(args, &mut log);
    let workers = host_cpus().min(cat.shards()).max(1);
    let budget = Duration::from_secs(args.seconds);
    // The remaining set-ups are spread between the measured pairs, so
    // `setup_s` samples the same stretch of host time as the serving
    // metrics.
    let mut setup_times = vec![first_setup];
    let setup_budget = budget.as_secs_f64() * SETUP_SHARE;
    let wanted =
        |times: &Vec<f64>| times.len() < MIN_SETUPS || times.iter().sum::<f64>() < setup_budget;
    let one_more = |times: &mut Vec<f64>| {
        if wanted(times) {
            times.push(setup_once::<B>(args, &mut SpanLog::new(false, epoch)).1);
        }
    };
    if args.trace {
        let between = &mut || one_more(&mut setup_times);
        let mut outcome = ledger::run::<B>(args, &cat, workers, budget, log, between)?;
        outcome
            .notes
            .push(("setup_s".into(), format!("{:.4}", median(&setup_times))));
        return Ok(outcome);
    }
    let Pairs {
        one,
        many,
        request_p50,
        request_p99,
    } = pairs::<B>(&cat, workers, budget, &mut || one_more(&mut setup_times))?;
    while wanted(&setup_times) {
        one_more(&mut setup_times);
    }
    let first = &one[0];
    let median_of =
        |set: &[Phase], f: fn(&Phase) -> f64| median(&set.iter().map(f).collect::<Vec<_>>());
    let metrics = vec![
        metric("setup_s", "s", median(&setup_times)),
        metric(
            "elements_per_s",
            "elements/s",
            median_of(&many, Phase::elements_per_s),
        ),
        metric(
            "ns_per_element_1w",
            "ns",
            median_of(&one, Phase::ns_per_element),
        ),
        metric("request_us_p50", "us", median(&request_p50)),
        metric("request_us_p99", "us", median(&request_p99)),
        metric("peak_rss_mb", "MiB", util::peak_rss_mib()),
        metric("served_ratio", "ratio", 1.0 - first.fail_ratio()),
        metric("on_time_ratio", "ratio", 1.0 - first.miss_ratio()),
    ];
    let mut notes = common_notes(
        args.kind,
        args.seed,
        &cat,
        workers,
        one.len(),
        many.len(),
        first,
    );
    let list = |values: Vec<f64>| {
        values
            .iter()
            .map(|v| format!("{v:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    notes.push(("reps_request_us_p50".into(), list(request_p50)));
    notes.push(("reps_request_us_p99".into(), list(request_p99)));
    notes.push((
        "reps_ns_per_element_1w".into(),
        list(one.iter().map(Phase::ns_per_element).collect()),
    ));
    notes.push((
        "reps_elements_per_s".into(),
        list(many.iter().map(Phase::elements_per_s).collect()),
    ));
    notes.push(("setup_times".into(), list(setup_times)));
    notes.push(("fail_ratio".into(), format!("{:.6}", first.fail_ratio())));
    notes.push(("miss_ratio".into(), format!("{:.6}", first.miss_ratio())));
    Ok(Outcome {
        attempted: first.requests + first.elements,
        failed: first.rejected + first.errors + first.stats.global.dropped_elements as u64,
        metrics,
        notes,
    })
}

/// Run metadata recorded with every result.
fn common_notes(
    kind: Kind,
    seed: u64,
    cat: &Catalog,
    workers: usize,
    reps_1w: usize,
    reps_nproc: usize,
    first: &Phase,
) -> Vec<(String, String)> {
    vec![
        ("workload".into(), kind.name().into()),
        ("seed".into(), seed.to_string()),
        ("rev".into(), rev()),
        ("host_cpus".into(), host_cpus().to_string()),
        ("workers".into(), workers.to_string()),
        ("profile".into(), profile().into()),
        ("reps_1w".into(), reps_1w.to_string()),
        ("reps_nproc".into(), reps_nproc.to_string()),
        ("shards".into(), cat.shards().to_string()),
        ("objects".into(), cat.objects.len().to_string()),
        ("catalog_bytes".into(), cat.bytes().to_string()),
        (
            "cache_budget_per_shard".into(),
            cat.cache_budget.to_string(),
        ),
        ("requests".into(), first.requests.to_string()),
        (
            "request_samples".into(),
            (first.open_ns.len() + first.control_ns.len()).to_string(),
        ),
        ("skipped".into(), first.skipped.to_string()),
        ("elements".into(), first.elements.to_string()),
        ("digest".into(), format!("{:016x}", first.digest)),
    ]
}

fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The program's revision: `git rev-parse HEAD` where the checkout is a git
/// repository, else a digest of the program's sources (`crates/`).
fn rev() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_owned();
        }
    }
    let mut files = Vec::new();
    collect(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("src-{:016x}", util::fnv64(&bytes))
}

fn collect(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

fn report(args: &Args, o: &Outcome) {
    eprintln!(
        "== perfbench {} seed {} trace {} ==",
        args.kind.name(),
        args.seed,
        args.trace as u8
    );
    for (k, v) in &o.notes {
        eprintln!("  {k:<28} {v}");
    }
    for m in &o.metrics {
        eprintln!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let meta: Vec<String> = o
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    let metrics = format!("{{{}}}", metrics.join(", "));
    let record = format!(
        "{{\"meta\": {{{}}}, \"metrics\": {metrics}}}",
        meta.join(", ")
    );
    let path = format!(
        "{}/result-{}-seed{}-trace{}.json",
        args.out,
        args.kind.name(),
        args.seed,
        args.trace as u8
    );
    if std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, record + "\n"))
        .is_err()
    {
        eprintln!("perfbench: could not write {path}");
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        o.attempted.max(1),
        o.failed
    );
}
