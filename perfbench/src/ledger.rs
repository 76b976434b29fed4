//! The traced run (`--trace 1`): per-layer metrics measured from outside
//! the program, and a ledger that splits the traced ns/element across the
//! layers hidden inside the drain, with the unexplained remainder as its
//! own row.
//!
//! Layers the benchmark can call directly are timed around those calls
//! (`request`, `run_until`, `finish`, every decorated blob read). Layers
//! inside the drain are replayed at the run's real sizes and in its real
//! call order: the sequence of cache lookups is read back from the
//! program's own per-shard tracer (`with_shard_tracers`), and replayed
//! through a fresh `SegmentCache`, `crc32`, the `Rational` cost formula and
//! a `MetricsRegistry`. Each replay is checked against the run's own
//! counters before its time is used.

use crate::drive::fresh;
use crate::drive::Phase;
use crate::probe::{ReadRec, SpanLog, Timed};
use crate::util::{median, percentile};
use crate::workload::{Action, Backing, Catalog};
use crate::{metric, Args, Metric, Outcome};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};
use tbm_blob::{BlobStore, ByteSpan, RetryPolicy};
use tbm_core::{crc32, BlobId};
use tbm_obs::{
    micros, MetricsRegistry, ATTR_DECODE_US, ATTR_ELEMENT_INDEX, ATTR_FAILOVER_US,
    ATTR_INHERITED_US, ATTR_LATENESS_US, ATTR_NODELOSS_US, ATTR_RETRY_US, ATTR_STORAGE_US,
    ATTR_WAIT_US, ELEMENT_SPAN, LATENCY_BUCKETS_US,
};
use tbm_player::{demanded_rate, schedule_from_interp};
use tbm_serve::{SegmentCache, ShardedServer};
use tbm_time::{Rational, TimeDelta, TimePoint};

/// Traced and tracer-on phases per run, each; their medians are used.
const TRACED_REPS: usize = 3;

fn same_behaviour(base: &Phase, other: &Phase, what: &str) -> Result<(), String> {
    if base.digest == other.digest {
        Ok(())
    } else {
        Err(format!(
            "behaviour digest {:016x} {what} differs from {:016x} untraced",
            other.digest, base.digest
        ))
    }
}

/// Median cost of one `Instant::now()` pair, subtracted from per-call
/// timings.
fn clock_overhead_ns() -> f64 {
    let mut v: Vec<f64> = (0..4001)
        .map(|_| {
            let t = Instant::now();
            (Instant::now() - t).as_nanos() as f64
        })
        .collect();
    percentile(&mut v, 50.0)
}

/// One cache lookup of the run, in the order the shard made it.
struct Lookup {
    blob: BlobId,
    span: ByteSpan,
}

/// The session state the program's deadline arithmetic reads, rebuilt
/// from the session's own trace events.
#[derive(Debug, Clone, Copy)]
struct Clock {
    rate: (u32, u32),
    /// Simulated instant of the last anchoring request.
    play_time: TimePoint,
    /// `scaled_rel` of the first element served since that anchor.
    anchor_rel: Option<Rational>,
    /// Ready instant of that first element: the presentation clock.
    clock_base: Option<TimePoint>,
    last_ready: TimePoint,
    last_lateness_us: i64,
    degraded: bool,
}

impl Clock {
    fn new(degraded: bool) -> Clock {
        Clock {
            rate: (1, 1),
            play_time: TimePoint::ZERO,
            anchor_rel: None,
            clock_base: None,
            last_ready: TimePoint::ZERO,
            last_lateness_us: 0,
            degraded,
        }
    }
}

/// The per-element figures the program records on its element span: the
/// span ends at `ready`, and `service_us` is its length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Times {
    ready: TimePoint,
    storage_us: i64,
    retry_us: i64,
    decode_us: i64,
    wait_us: i64,
    inherited_us: i64,
    lateness_us: i64,
    service_us: i64,
}

/// One served element: the operands of the program's service-cost and
/// deadline arithmetic, and what the program recorded for it.
#[derive(Debug, Clone, Copy)]
struct Served {
    shard: usize,
    start: TimePoint,
    /// The schedule's relative deadline of the element (`jobs[pos]`).
    job_rel: Rational,
    clock: Clock,
    first_bytes: u64,
    retry_bytes: u64,
    decoded_bytes: u64,
    backoff_us: u64,
    recorded: Times,
}

/// Requests after which the program re-anchors a playing session.
const ANCHORS: [&str; 5] = [
    "session.play",
    "session.seek",
    "session.rate",
    "session.upgrade",
    "session.force_degrade",
];

/// Backoff the server's default `RetryPolicy` charges for `retries`
/// retries of one read.
fn backoff_us(retries: u64) -> u64 {
    let policy = RetryPolicy::new(3);
    (0..retries).map(|i| policy.base_backoff_us << i).sum()
}

/// The run's lookups per shard and its served elements, read back from
/// the program's per-shard traces. `reads` are the timing decorator's
/// records of the same schedule; each miss's retry reads come from there.
fn call_sequence<B: BlobStore>(
    cat: &Catalog,
    server: &ShardedServer<B>,
    object_of: &HashMap<u64, usize>,
    reads: &[Vec<ReadRec>],
) -> Result<(Vec<Vec<Lookup>>, Vec<Served>), String> {
    let schedules: Vec<Vec<Rational>> = (0..cat.objects.len())
        .map(|obj| {
            let stream = cat
                .interp(obj)
                .stream(&cat.objects[obj].name)
                .map_err(|e| e.to_string())?;
            Ok(schedule_from_interp(stream, None)
                .iter()
                .map(|j| j.deadline.seconds())
                .collect())
        })
        .collect::<Result<_, String>>()?;
    let mut lookups = Vec::new();
    let mut served = Vec::new();
    for (shard, tracer) in server.shard_tracers().iter().enumerate() {
        let snap = tracer.snapshot();
        if snap.dropped > 0 {
            return Err(format!(
                "shard {shard} trace ring dropped {} records",
                snap.dropped
            ));
        }
        let mut clocks: HashMap<u64, Clock> = HashMap::new();
        let mut elements: HashMap<u64, usize> = HashMap::new();
        let mut seq = Vec::new();
        let mut shard_reads = reads[shard].iter().peekable();
        for r in &snap.records {
            let Some(session) = r.session else {
                continue;
            };
            if r.name == "admission" {
                let degraded = r.attr("verdict").and_then(|v| v.as_str()) == Some("degraded");
                clocks.insert(session, Clock::new(degraded));
            } else if ANCHORS.contains(&r.name) {
                let c = clocks.get_mut(&session).ok_or("request before admission")?;
                if r.name == "session.rate" {
                    c.rate = (r.attr_i64("num") as u32, r.attr_i64("den") as u32);
                }
                c.degraded = match r.name {
                    "session.upgrade" => false,
                    "session.force_degrade" => true,
                    _ => c.degraded,
                };
                c.play_time = r.start;
                c.anchor_rel = None;
                c.clock_base = None;
            } else if r.name == ELEMENT_SPAN {
                let obj = *object_of
                    .get(&session)
                    .ok_or("element of an unknown session")?;
                let pos = r.attr_i64(ATTR_ELEMENT_INDEX) as usize;
                let ready = r.end.ok_or("element span left open")?;
                if r.attr_i64(ATTR_NODELOSS_US) != 0 || r.attr_i64(ATTR_FAILOVER_US) != 0 {
                    return Err("an element was stalled by a node or tier outage".into());
                }
                let c = clocks.get_mut(&session).ok_or("element before admission")?;
                let job_rel = schedules[obj][pos];
                let (num, den) = c.rate;
                c.anchor_rel
                    .get_or_insert(job_rel * Rational::new(den as i64, num as i64));
                let recorded = Times {
                    ready,
                    storage_us: r.attr_i64(ATTR_STORAGE_US),
                    retry_us: r.attr_i64(ATTR_RETRY_US),
                    decode_us: r.attr_i64(ATTR_DECODE_US),
                    wait_us: r.attr_i64(ATTR_WAIT_US),
                    inherited_us: r.attr_i64(ATTR_INHERITED_US),
                    lateness_us: r.attr_i64(ATTR_LATENESS_US),
                    service_us: micros((ready - r.start).seconds()),
                };
                elements.insert(r.id, served.len());
                served.push((
                    Served {
                        shard,
                        start: r.start,
                        job_rel,
                        clock: *c,
                        first_bytes: 0,
                        retry_bytes: 0,
                        decoded_bytes: 0,
                        backoff_us: 0,
                        recorded,
                    },
                    cat.interp(obj).blob(),
                    cat.interp(obj)
                        .stream(&cat.objects[obj].name)
                        .map_err(|e| e.to_string())?
                        .entries()[pos]
                        .placement
                        .layers()
                        .to_vec(),
                ));
                c.clock_base.get_or_insert(ready);
                c.last_ready = ready;
                c.last_lateness_us = recorded.lateness_us;
            } else if r.name == "cache.hit" || r.name == "cache.miss" {
                let &e = elements
                    .get(&r.parent.raw())
                    .ok_or("cache event outside an element span")?;
                let (el, blob, layers) = &mut served[e];
                let span = layers[r.attr_i64("layer") as usize];
                el.decoded_bytes += span.len;
                if r.name == "cache.miss" {
                    el.first_bytes += span.len;
                    let first = shard_reads
                        .next()
                        .filter(|x| x.attempt == 0 && x.blob == *blob && x.span == span);
                    if first.is_none() {
                        return Err(format!(
                            "shard {shard}: the decorator's reads do not follow the trace's misses"
                        ));
                    }
                    let mut retries = 0;
                    while shard_reads.next_if(|x| x.attempt > 0).is_some() {
                        retries += 1;
                    }
                    el.retry_bytes += retries * span.len;
                    el.backoff_us += backoff_us(retries);
                }
                seq.push(Lookup { blob: *blob, span });
            }
        }
        if shard_reads.next().is_some() {
            return Err(format!(
                "shard {shard}: the decorator saw reads the trace has no miss for"
            ));
        }
        lookups.push(seq);
    }
    Ok((lookups, served.into_iter().map(|(s, _, _)| s).collect()))
}

struct CacheReplay {
    get_ns: f64,
    hit_ns: f64,
    miss_ns: f64,
    insert_ns: f64,
    total_ns: f64,
}

/// Replays every shard's lookups through a fresh `SegmentCache` of the
/// run's budget, inserting on a miss, timing each call.
fn replay_cache(
    cat: &Catalog,
    lookups: &[Vec<Lookup>],
    run: &Phase,
    clock: f64,
) -> Result<CacheReplay, String> {
    let (mut hit, mut miss, mut ins) = (0.0, 0.0, 0.0);
    let (mut hits, mut misses, mut inserts) = (0u64, 0u64, 0u64);
    for (shard, seq) in lookups.iter().enumerate() {
        let store = cat.store(shard);
        let mut cache = SegmentCache::new(cat.cache_budget);
        for l in seq {
            let t = Instant::now();
            let found = black_box(cache.get(l.blob, l.span).is_some());
            let ns = (Instant::now() - t).as_nanos() as f64 - clock;
            if found {
                hit += ns;
                hits += 1;
                continue;
            }
            miss += ns;
            misses += 1;
            let bytes = store.read(l.blob, l.span).map_err(|e| e.to_string())?;
            let t = Instant::now();
            cache.insert(l.blob, l.span, bytes);
            ins += (Instant::now() - t).as_nanos() as f64 - clock;
            inserts += 1;
        }
        let want = run.stats.per_shard[shard].cache;
        let got = cache.stats();
        if (got.hits, got.misses, got.insertions, got.evictions)
            != (want.hits, want.misses, want.insertions, want.evictions)
        {
            return Err(format!(
                "cache replay of shard {shard} diverged: replay {got:?}, run {want:?}"
            ));
        }
    }
    let per = |t: f64, n: u64| if n == 0 { 0.0 } else { t / n as f64 };
    Ok(CacheReplay {
        get_ns: per(hit + miss, hits + misses),
        hit_ns: per(hit, hits),
        miss_ns: per(miss, misses),
        insert_ns: per(ins, inserts),
        total_ns: hit + miss + ins,
    })
}

/// `Session::presentation_deadline` of the program, from the element's
/// clock state.
fn presentation_deadline(e: &Served) -> Option<TimePoint> {
    let base = e.clock.clock_base?;
    let anchor_rel = e.clock.anchor_rel.unwrap_or(Rational::ZERO);
    let (num, den) = e.clock.rate;
    let scaled_rel = e.job_rel * Rational::new(den as i64, num as i64);
    Some(base + TimeDelta::from_seconds(scaled_rel - anchor_rel))
}

/// Replays the program's per-element service-cost and deadline arithmetic
/// in `Rational`, with the workload's `Capacity` and each element's real
/// bytes, retries, start instant and session clock. The results go to
/// `out`. Returns total ns.
fn replay_time(cat: &Catalog, served: &[Served], out: &mut Vec<Times>) -> f64 {
    let model = cat.capacity.cost_model();
    let bw = model.bandwidth.max(1) as i64;
    out.clear();
    out.reserve(served.len());
    let t = Instant::now();
    for e in served {
        // The store's slack before the element is late, computed before
        // its reads.
        let slack_us = presentation_deadline(e)
            .map(|d| micros((d - e.start).max(TimeDelta::ZERO).seconds()) as u64);
        let first_cost = Rational::new(e.first_bytes as i64, bw);
        let retry_cost = Rational::new(e.retry_bytes as i64, bw);
        let mut decode_cost = Rational::new(model.overhead_us as i64, 1_000_000);
        if model.decode_rate > 0 {
            decode_cost += Rational::new(e.decoded_bytes as i64, model.decode_rate as i64);
        }
        let service = TimeDelta::from_seconds(first_cost + retry_cost + decode_cost)
            + TimeDelta::from_micros(e.backoff_us as i64);
        let storage_us = micros(first_cost);
        let retry_us = micros(retry_cost) + e.backoff_us as i64;
        let decode_us = micros(decode_cost);
        let ready = e.start + service;
        let wait_base = e.clock.play_time.max(e.clock.last_ready);
        let wait_us = micros((e.start - wait_base).max(TimeDelta::ZERO).seconds());
        let deadline = presentation_deadline(e).unwrap_or(ready);
        let lateness_us = micros((ready - deadline).max(TimeDelta::ZERO).seconds());
        black_box(slack_us);
        out.push(Times {
            ready,
            storage_us,
            retry_us,
            decode_us,
            wait_us,
            inherited_us: e.clock.last_lateness_us.min(lateness_us).max(0),
            lateness_us,
            service_us: micros(service.seconds()),
        });
    }
    (Instant::now() - t).as_nanos() as f64
}

/// The replayed figures must be the ones the program recorded.
fn check_time(served: &[Served], times: &[Times]) -> Result<(), String> {
    for (i, (e, got)) in served.iter().zip(times).enumerate() {
        if *got != e.recorded {
            return Err(format!(
                "time replay of element {i} (shard {}) diverged: replay {got:?}, run {:?}",
                e.shard, e.recorded
            ));
        }
    }
    Ok(())
}

/// Replays the per-element registry calls with the server's metric names
/// and the replayed values, one registry per shard. Returns the total ns
/// and the registries.
fn replay_metrics(
    served: &[Served],
    times: &[Times],
    shards: usize,
    batches: u64,
) -> (f64, Vec<MetricsRegistry>) {
    let mut regs: Vec<MetricsRegistry> = (0..shards).map(|_| MetricsRegistry::new()).collect();
    let every = (served.len() as u64 / batches.max(1)).max(1) as usize;
    let t = Instant::now();
    for (i, (e, x)) in served.iter().zip(times).enumerate() {
        let m = &mut regs[e.shard];
        let from_store = e.first_bytes + e.retry_bytes;
        m.inc("storage.bytes_read", from_store);
        m.inc("serve.elements.served", 1);
        m.observe("serve.service_us", &LATENCY_BUCKETS_US, x.service_us as u64);
        if from_store > 0 {
            m.observe(
                "storage.read_us",
                &LATENCY_BUCKETS_US,
                (x.storage_us + x.retry_us) as u64,
            );
        }
        if x.lateness_us > 0 {
            m.inc("serve.elements.misses", 1);
            m.observe(
                "serve.lateness_us",
                &LATENCY_BUCKETS_US,
                x.lateness_us as u64,
            );
            let by_fidelity = if e.clock.degraded {
                "serve.lateness_us.degraded"
            } else {
                "serve.lateness_us.full"
            };
            m.observe(by_fidelity, &LATENCY_BUCKETS_US, x.lateness_us as u64);
        }
        m.set_gauge("cache.bytes", e.decoded_bytes as i64);
        if i % every == 0 {
            m.inc("serve.batches", 1);
        }
    }
    let ns = (Instant::now() - t).as_nanos() as f64;
    (ns, black_box(regs))
}

/// The replayed counters and histograms must equal each shard's own.
fn check_metrics<B: BlobStore>(
    server: &ShardedServer<B>,
    regs: &[MetricsRegistry],
) -> Result<(), String> {
    const COUNTERS: [&str; 3] = [
        "storage.bytes_read",
        "serve.elements.served",
        "serve.elements.misses",
    ];
    const HISTOGRAMS: [&str; 5] = [
        "serve.service_us",
        "storage.read_us",
        "serve.lateness_us",
        "serve.lateness_us.full",
        "serve.lateness_us.degraded",
    ];
    for (i, (shard, reg)) in server.shards().zip(regs).enumerate() {
        let run = shard.metrics();
        for name in COUNTERS {
            if run.counter(name) != reg.counter(name) {
                return Err(format!(
                    "metrics replay of shard {i}: {name} is {}, the run's {}",
                    reg.counter(name),
                    run.counter(name)
                ));
            }
        }
        for name in HISTOGRAMS {
            let got = reg.histogram_or_empty(name, &LATENCY_BUCKETS_US);
            let want = run.histogram_or_empty(name, &LATENCY_BUCKETS_US);
            if got.bucket_counts() != want.bucket_counts() || got.sum() != want.sum() {
                return Err(format!(
                    "metrics replay of shard {i}: histogram {name} differs from the run's"
                ));
            }
        }
    }
    Ok(())
}

/// crc32 over every span the traced run verified, timed per call.
fn replay_checksum<B: Backing>(
    cat: &Catalog,
    server: &ShardedServer<Timed<B>>,
    clock: f64,
) -> Result<(f64, u64), String> {
    let (mut ns, mut bytes) = (0.0, 0u64);
    for shard in 0..cat.shards() {
        let store = cat.store(shard);
        for r in server
            .shard(shard)
            .db()
            .store()
            .reads()
            .iter()
            .filter(|r| r.ok)
        {
            let buf = store.read(r.blob, r.span).map_err(|e| e.to_string())?;
            let t = Instant::now();
            black_box(crc32(black_box(&buf)));
            ns += (Instant::now() - t).as_nanos() as f64 - clock;
            bytes += r.span.len;
        }
    }
    Ok((ns, bytes))
}

/// The open path per `Open` of the schedule: catalog lookup, then the
/// schedule and its demanded rate. Returns (lookup ns, schedule ns) per
/// open.
fn replay_open<B: BlobStore>(
    cat: &Catalog,
    server: &ShardedServer<B>,
) -> Result<(f64, f64), String> {
    let opens: Vec<(usize, &str)> = cat
        .events
        .iter()
        .filter_map(|e| match e.action {
            Action::Open(obj) => {
                let name = cat.objects[obj].name.as_str();
                Some((server.shard_for(name), name))
            }
            _ => None,
        })
        .collect();
    let n = opens.len().max(1) as f64;
    let mut lookup = Vec::new();
    let mut full = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        for &(shard, name) in &opens {
            black_box(
                server
                    .shard(shard)
                    .db()
                    .stream_of(name)
                    .map_err(|e| e.to_string())?,
            );
        }
        lookup.push((Instant::now() - t).as_nanos() as f64 / n);
        let t = Instant::now();
        for &(shard, name) in &opens {
            let (_, stream) = server
                .shard(shard)
                .db()
                .stream_of(name)
                .map_err(|e| e.to_string())?;
            let jobs = schedule_from_interp(stream, None);
            black_box(demanded_rate(&jobs, stream.system()));
        }
        full.push((Instant::now() - t).as_nanos() as f64 / n);
    }
    let l = median(&lookup);
    Ok((l, (median(&full) - l).max(0.0)))
}

/// The decorator's counts must equal the program's own counters.
fn check_decorator<B: Backing>(
    server: &ShardedServer<Timed<B>>,
    p: &Phase,
) -> Result<(u64, u64, u64, u64, f64), String> {
    let (mut reads, mut bytes, mut failed, mut retries, mut ns) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for shard in server.shards() {
        for r in shard.db().store().reads().iter() {
            reads += 1;
            bytes += r.span.len;
            failed += u64::from(!r.ok);
            retries += u64::from(r.attempt > 0);
            ns += r.end_ns - r.start_ns;
        }
    }
    let misses = p.stats.global.cache.misses;
    if reads != misses + retries {
        return Err(format!(
            "decorator saw {reads} reads; cache misses {misses} + retries {retries}"
        ));
    }
    if bytes != p.bytes_read {
        return Err(format!(
            "decorator read {bytes} bytes; storage.bytes_read is {}",
            p.bytes_read
        ));
    }
    Ok((reads, bytes, failed, retries, ns as f64))
}

pub fn run<B: Backing>(
    args: &Args,
    cat: &Catalog,
    workers: usize,
    budget: Duration,
    log: SpanLog,
    between: &mut dyn FnMut(),
) -> Result<Outcome, String> {
    let epoch = log.epoch();
    // Untraced pairs for the baseline: half the budget.
    let crate::Pairs { one, many, .. } = crate::pairs::<B>(cat, workers, budget / 2, between)?;
    let base = &one[0];
    let untraced_1w = median(&one.iter().map(Phase::ns_per_element).collect::<Vec<_>>());

    // The pool: every instant's due work as one round at `workers`.
    let mut pooled = Vec::new();
    for _ in 0..TRACED_REPS {
        let (p, _) = fresh::<B>(cat, workers, true, None, &mut SpanLog::new(false, epoch))?;
        same_behaviour(base, &p, "with pooled instants")?;
        pooled.push(p);
    }
    let pooled_ns = median(&pooled.iter().map(Phase::ns_per_element).collect::<Vec<_>>());
    let mut round_us: Vec<f64> = pooled
        .iter()
        .flat_map(|p| p.round_us.iter().copied())
        .collect();

    // Traced phases: the timing decorator outermost on every shard's store
    // and spans around every call. The first one's spans are kept.
    let mut traced = Vec::new();
    let mut kept = None;
    for rep in 0..TRACED_REPS {
        let mut l = SpanLog::new(true, epoch);
        let (p, server) = fresh::<Timed<B>>(cat, 1, false, None, &mut l)?;
        same_behaviour(base, &p, "traced")?;
        let counts = check_decorator(&server, &p)?;
        if rep == 0 {
            kept = Some((l, server, counts));
        }
        traced.push(p);
    }
    let (mut drive_log, traced_server, (reads, read_bytes, failed_reads, retry_reads, read_ns)) =
        kept.expect("at least one traced phase");
    let t = &traced[0];
    let traced_1w = median(&traced.iter().map(Phase::ns_per_element).collect::<Vec<_>>());

    // The program's tracer on (and the call sequence for the replays).
    let shards = cat.shards();
    let per_shard_records = base
        .stats
        .per_shard
        .iter()
        .map(|s| {
            s.elements_served as u64
                + s.cache.lookups()
                + 8 * (s.admitted + s.admitted_degraded + s.rejected) as u64
        })
        .max()
        .unwrap_or(0);
    let cap = ((per_shard_records + 4096) as usize).next_power_of_two();
    let mut tracer_on = Vec::new();
    let mut last = None;
    for _ in 0..TRACED_REPS {
        let (p, server) = fresh::<B>(cat, 1, false, Some(cap), &mut SpanLog::new(false, epoch))?;
        same_behaviour(base, &p, "with the program tracer on")?;
        tracer_on.push(p.ns_per_element());
        last = Some(server);
    }
    let tracer_server = last.expect("at least one tracer phase");
    let object_of: HashMap<u64, usize> = base
        .sessions
        .iter()
        .zip(client_objects(cat))
        .filter_map(|(s, obj)| s.map(|id| (id.raw(), obj)))
        .collect();
    let shard_reads: Vec<Vec<ReadRec>> = traced_server
        .shards()
        .map(|s| s.db().store().reads().clone())
        .collect();
    let (lookups, served) = call_sequence(cat, &tracer_server, &object_of, &shard_reads)?;
    drop(shard_reads);
    if served.len() as u64 != base.elements {
        return Err(format!(
            "trace holds {} elements, the run served {}",
            served.len(),
            base.elements
        ));
    }

    // Replays, each checked against the run.
    let clock = clock_overhead_ns();
    let elements = base.elements as f64;
    let cache = replay_cache(cat, &lookups, base, clock)?;
    drop(lookups);
    let mut times = Vec::new();
    let time_ns = median(
        &(0..3)
            .map(|_| replay_time(cat, &served, &mut times))
            .collect::<Vec<_>>(),
    );
    check_time(&served, &times)?;
    let mut metrics_ns = Vec::new();
    for _ in 0..3 {
        let (ns, regs) = replay_metrics(&served, &times, shards, base.batches);
        check_metrics(&tracer_server, &regs)?;
        metrics_ns.push(ns);
    }
    let metrics_ns = median(&metrics_ns);
    drop(tracer_server);
    let (crc_ns, crc_bytes) = replay_checksum(cat, &traced_server, clock)?;
    let (lookup_ns, schedule_ns) = replay_open(cat, &traced_server)?;
    let read_spans: Vec<(u64, u64, u64)> = traced_server
        .shards()
        .flat_map(|s| {
            s.db()
                .store()
                .reads()
                .iter()
                .map(|r| (r.start_ns, r.end_ns, r.blob.raw()))
                .collect::<Vec<_>>()
        })
        .collect();
    drop(traced_server);

    let blob_pe = read_ns / elements;
    let crc_pe = crc_ns / elements;
    let cache_pe = cache.total_ns / elements;
    let time_pe = time_ns / elements;
    let metrics_pe = metrics_ns / elements;
    let explained = blob_pe + crc_pe + cache_pe + time_pe + metrics_pe;

    // Setup spans.
    let objects = cat.objects.len() as f64;
    let capture_ms = log.total_ns("setup.capture") as f64 / 1e6 / objects;
    let register_us = log.total_ns("setup.register") as f64 / 1e3 / objects;

    // Drive and request spans of the kept traced phase, with its decorated
    // reads adopted as children; the span file is written out here.
    drive_log.adopt("blob.read", &read_spans);
    let drain_self = drive_log.self_ns("serve.drive") as f64 / t.elements.max(1) as f64;
    write_spans(args, &log, &drive_log)?;
    let g = &t.stats.global;
    let mut open_us: Vec<f64> = t.open_ns.iter().map(|&n| n as f64 / 1e3).collect();
    let mut control_us: Vec<f64> = t.control_ns.iter().map(|&n| n as f64 / 1e3).collect();
    let metrics: Vec<Metric> = vec![
        metric("serve.open_us_p50", "us", percentile(&mut open_us, 50.0)),
        metric(
            "serve.control_us_p50",
            "us",
            percentile(&mut control_us, 50.0),
        ),
        metric("serve.drain_self_ns_per_element", "ns", drain_self),
        metric(
            "serve.elements_per_batch",
            "elements",
            t.elements as f64 / t.batches.max(1) as f64,
        ),
        metric("serve.admitted", "count", g.admitted as f64),
        metric("serve.degraded", "count", g.admitted_degraded as f64),
        metric("serve.rejected", "count", g.rejected as f64),
        metric("serve.requests", "count", t.requests as f64),
        metric("pool.speedup", "x", untraced_1w / pooled_ns),
        metric(
            "pool.rounds",
            "count",
            pooled[0].pool.rounds as f64 / workers as f64,
        ),
        metric("pool.steals", "count", pooled[0].pool.steals as f64),
        metric("pool.round_us_p50", "us", percentile(&mut round_us, 50.0)),
        metric("cache.hit_ratio", "ratio", g.cache.hit_ratio()),
        metric("cache.insertions", "count", g.cache.insertions as f64),
        metric("cache.evictions", "count", g.cache.evictions as f64),
        metric("cache.get_ns", "ns", cache.get_ns),
        metric("cache.get_hit_ns", "ns", cache.hit_ns),
        metric("cache.get_miss_ns", "ns", cache.miss_ns),
        metric("cache.insert_ns", "ns", cache.insert_ns),
        metric("cache.ns_per_element", "ns", cache_pe),
        metric("blob.reads", "count", reads as f64),
        metric("blob.read_bytes", "bytes", read_bytes as f64),
        metric("blob.read_ns_per_element", "ns", blob_pe),
        metric("blob.failed_reads", "count", failed_reads as f64),
        metric("blob.retry_reads", "count", retry_reads as f64),
        metric(
            "checksum.ns_per_kib",
            "ns",
            crc_ns / (crc_bytes.max(1) as f64 / 1024.0),
        ),
        metric("checksum.ns_per_element", "ns", crc_pe),
        metric("time.cost_ns_per_element", "ns", time_pe),
        metric("metrics.ns_per_element", "ns", metrics_pe),
        metric(
            "tracer.overhead_ns_per_element",
            "ns",
            median(&tracer_on) - untraced_1w,
        ),
        metric("open.lookup_ns", "ns", lookup_ns),
        metric("open.schedule_ns", "ns", schedule_ns),
        metric("capture.ms_per_object", "ms", capture_ms),
        metric("register.us_per_object", "us", register_us),
        metric("ledger.traced_ns_per_element", "ns", traced_1w),
        metric(
            "ledger.unexplained_ns_per_element",
            "ns",
            traced_1w - explained,
        ),
        metric("ledger.explained_share", "ratio", explained / traced_1w),
        metric(
            "trace.overhead_ns_per_element",
            "ns",
            traced_1w - untraced_1w,
        ),
    ];
    let mut notes = crate::common_notes(
        args.kind,
        args.seed,
        cat,
        workers,
        one.len(),
        many.len(),
        base,
    );
    notes.push(("traced_reps".into(), TRACED_REPS.to_string()));
    notes.push(("tracer_capacity_per_shard".into(), cap.to_string()));
    notes.push(("clock_overhead_ns".into(), format!("{clock:.1}")));
    notes.push(("spans".into(), spans_path(args)));
    Ok(Outcome {
        attempted: t.requests + t.elements,
        failed: t.rejected + t.errors + g.dropped_elements as u64,
        metrics,
        notes,
    })
}

fn spans_path(args: &Args) -> String {
    format!(
        "{}/spans-{}-seed{}.csv",
        args.out,
        args.kind.name(),
        args.seed
    )
}

/// Writes the setup spans and the kept traced phase's spans to one CSV.
fn write_spans(args: &Args, setup: &SpanLog, drive: &SpanLog) -> Result<(), String> {
    let path = spans_path(args);
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&args.out)?;
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(w, "id,parent,name,start_ns,end_ns,key")?;
        let next = setup.write_csv(&mut w, 0)?;
        drive.write_csv(&mut w, next)?;
        w.flush()
    };
    write().map_err(|e| format!("writing {path}: {e}"))
}

/// The object each client opens, in client order.
fn client_objects(cat: &Catalog) -> Vec<usize> {
    let mut obj = vec![0; cat.clients];
    for e in &cat.events {
        if let Action::Open(o) = e.action {
            obj[e.client] = o;
        }
    }
    obj
}
