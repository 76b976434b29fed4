//! One serving phase: the schedule driven through `ShardedServer`'s public
//! API, with every drive and request timed from outside, and the
//! correctness checks every run must pass.

use crate::probe::SpanLog;
use crate::util::fnv64;
use crate::workload::{Action, Backing, Catalog};
use std::time::Instant;
use tbm_blob::BlobStore;
use tbm_core::SessionId;
use tbm_serve::{Request, Response, SessionState, ShardedServer, ShardedStats, WorkerStats};

/// What one phase did and how long it took.
#[derive(Debug)]
pub struct Phase {
    /// Wall time of every `run_until`/`finish` call.
    pub serve_ns: u64,
    pub elements: u64,
    /// Wall time of each `Open` request, and of each other request.
    pub open_ns: Vec<u64>,
    pub control_ns: Vec<u64>,
    pub requests: u64,
    pub rejected: u64,
    pub errors: u64,
    /// Scripted requests a client did not send because its session had
    /// already ended or was never admitted.
    pub skipped: u64,
    /// Wall time per pool round of each drive that used the pool, in µs.
    pub round_us: Vec<f64>,
    pub pool: WorkerStats,
    pub stats: ShardedStats,
    pub batches: u64,
    pub bytes_read: u64,
    pub digest: u64,
    /// Session of each client, where admitted.
    pub sessions: Vec<Option<SessionId>>,
}

impl Phase {
    pub fn ns_per_element(&self) -> f64 {
        self.serve_ns as f64 / self.elements.max(1) as f64
    }

    pub fn elements_per_s(&self) -> f64 {
        self.elements as f64 / (self.serve_ns.max(1) as f64 / 1e9)
    }

    /// (Opens rejected + requests returning `Err` + dropped elements) ÷
    /// (requests sent + elements dispatched).
    pub fn fail_ratio(&self) -> f64 {
        let failed = self.rejected + self.errors + self.stats.global.dropped_elements as u64;
        failed as f64 / (self.requests + self.elements).max(1) as f64
    }

    pub fn miss_ratio(&self) -> f64 {
        self.stats.global.deadline_misses as f64 / self.elements.max(1) as f64
    }
}

fn total(stats: &[WorkerStats]) -> WorkerStats {
    let mut t = WorkerStats::default();
    for w in stats {
        t.absorb(w);
    }
    t
}

/// Rounds run so far (every worker takes part in every round).
fn rounds(server_stats: &[WorkerStats]) -> u64 {
    server_stats.iter().map(|w| w.rounds).max().unwrap_or(0)
}

/// Whether a client whose session is in `state` would send `action`.
fn sends(action: Action, state: SessionState) -> bool {
    match action {
        Action::Open(_) => true,
        Action::Play => matches!(state, SessionState::Opened | SessionState::Paused),
        Action::Pause => state == SessionState::Playing,
        Action::Seek(_) | Action::SetRate(..) => matches!(
            state,
            SessionState::Opened | SessionState::Playing | SessionState::Paused
        ),
        Action::Close => state != SessionState::Closed,
    }
}

/// Times one drive call, recording its span and pool rounds.
fn drive<S: BlobStore>(
    server: &mut ShardedServer<S>,
    log: &mut SpanLog,
    phase: &mut Phase,
    call: impl FnOnce(&mut ShardedServer<S>) -> Option<ShardedStats>,
) -> Option<ShardedStats> {
    let before = rounds(server.worker_stats());
    let t0 = Instant::now();
    let out = call(server);
    let t1 = Instant::now();
    let ns = (t1 - t0).as_nanos() as u64;
    phase.serve_ns += ns;
    log.record("serve.drive", t0, t1, 0);
    let ran = rounds(server.worker_stats()) - before;
    if ran > 0 {
        phase.round_us.push(ns as f64 / 1e3 / ran as f64);
    }
    out
}

/// Drives `cat`'s schedule through `server` and drains it at `workers`.
///
/// The schedule itself runs at one worker (`ShardedServer::set_workers`),
/// as its docs describe for staging a session wave. With `pool_ticks`, the
/// first drive of each instant runs at `workers` instead, so every
/// instant's due work is one pool round. Returns an error when a
/// correctness check fails.
pub fn run<S: BlobStore>(
    cat: &Catalog,
    server: &mut ShardedServer<S>,
    workers: usize,
    pool_ticks: bool,
    log: &mut SpanLog,
) -> Result<Phase, String> {
    let mut phase = Phase {
        serve_ns: 0,
        elements: 0,
        open_ns: Vec::with_capacity(cat.clients),
        control_ns: Vec::with_capacity(cat.events.len()),
        requests: 0,
        rejected: 0,
        errors: 0,
        skipped: 0,
        round_us: Vec::new(),
        pool: WorkerStats::default(),
        stats: ShardedStats::from_shards(Vec::new()),
        batches: 0,
        bytes_read: 0,
        digest: 0,
        sessions: vec![None; cat.clients],
    };
    let mut tick = None;
    for (n, ev) in cat.events.iter().enumerate() {
        // The first drive of an instant serves everything that came due
        // since the last one; the drives between requests at one instant
        // only serve what the previous request queued.
        let first_of_tick = tick != Some(ev.at);
        tick = Some(ev.at);
        server.set_workers(if pool_ticks && first_of_tick {
            workers
        } else {
            1
        });
        drive(server, log, &mut phase, |s| {
            s.run_until(ev.at);
            None
        });
        let request = match ev.action {
            Action::Open(obj) => Request::Open {
                object: cat.objects[obj].name.clone(),
            },
            action => {
                let Some(id) = phase.sessions[ev.client] else {
                    phase.skipped += 1;
                    continue;
                };
                let state = server.session(id).map(|s| s.state());
                if !state.is_some_and(|st| sends(action, st)) {
                    phase.skipped += 1;
                    continue;
                }
                match action {
                    Action::Play => Request::Play { session: id },
                    Action::Pause => Request::Pause { session: id },
                    Action::Seek(to) => Request::Seek { session: id, to },
                    Action::SetRate(num, den) => Request::SetRate {
                        session: id,
                        num,
                        den,
                    },
                    Action::Close => Request::Close { session: id },
                    Action::Open(_) => unreachable!("matched above"),
                }
            }
        };
        let is_open = matches!(request, Request::Open { .. });
        let t0 = Instant::now();
        let response = server.request(ev.at, request);
        let t1 = Instant::now();
        phase.requests += 1;
        let ns = (t1 - t0).as_nanos() as u64;
        let mut key = n as u64;
        match response {
            Ok(Response::Opened { session, .. }) => {
                phase.sessions[ev.client] = session;
                match session {
                    Some(id) => key = id.raw(),
                    None => phase.rejected += 1,
                }
            }
            Ok(_) => key = phase.sessions[ev.client].map_or(key, |id| id.raw()),
            Err(_) => phase.errors += 1,
        }
        if is_open {
            phase.open_ns.push(ns);
            log.record("request.open", t0, t1, key);
        } else {
            phase.control_ns.push(ns);
            log.record("request.control", t0, t1, key);
        }
    }
    server.set_workers(workers);
    let stats = drive(server, log, &mut phase, |s| Some(s.finish()))
        .expect("the finish drive returns stats");
    phase.pool = total(server.worker_stats());
    let metrics = server.metrics();
    phase.batches = metrics.counter("serve.batches");
    phase.bytes_read = metrics.counter("storage.bytes_read");
    phase.elements = stats.global.elements_served as u64;
    phase.digest = fnv64(format!("{stats:?}\n{}", metrics.render()).as_bytes());
    phase.stats = stats;
    check(cat, server, &phase)?;
    Ok(phase)
}

/// The correctness gate of one phase.
fn check<S: BlobStore>(cat: &Catalog, server: &ShardedServer<S>, p: &Phase) -> Result<(), String> {
    let g = &p.stats.global;
    let fail = |what: String| Err(format!("{}: {what}", cat.kind.name()));
    if let Some(want) = cat.expected_elements {
        if p.elements != want {
            return fail(format!(
                "served {} elements, the schedule needs {want}",
                p.elements
            ));
        }
    }
    if p.elements == 0 {
        return fail("served no elements".into());
    }
    let per_session: usize = server.sessions().map(|s| s.stats().elements).sum();
    if per_session != g.elements_served {
        return fail(format!(
            "sessions account for {per_session} elements, the server for {}",
            g.elements_served
        ));
    }
    if g.service.count() != p.elements {
        return fail(format!(
            "{} service samples for {} elements",
            g.service.count(),
            p.elements
        ));
    }
    if g.faults_detected != g.degraded_elements + g.dropped_elements + g.repaired_elements {
        return fail("fault accounting does not balance".into());
    }
    let opens = p.open_ns.len();
    let decided = g.admitted + g.admitted_degraded + g.rejected;
    if decided != opens || g.rejected as u64 != p.rejected {
        return fail(format!("{opens} opens sent, {decided} admission decisions"));
    }
    if g.active_sessions != 0 && cat.kind != crate::workload::Kind::InteractiveChurn {
        return fail(format!(
            "{} sessions still active after the drain",
            g.active_sessions
        ));
    }
    match cat.kind {
        crate::workload::Kind::InteractiveChurn => {
            if g.admitted == 0 || g.admitted_degraded == 0 || g.rejected == 0 {
                return fail(format!(
                    "admission must admit, degrade and reject: {} / {} / {}",
                    g.admitted, g.admitted_degraded, g.rejected
                ));
            }
        }
        _ => {
            if g.rejected != 0 || g.admitted_degraded != 0 || p.errors != 0 {
                return fail("a batch workload must admit every session in full".into());
            }
        }
    }
    if cat.kind == crate::workload::Kind::HotFlashCrowd && g.cache.hit_ratio() < 0.99 {
        return fail(format!("hit ratio {:.4} below 0.99", g.cache.hit_ratio()));
    }
    Ok(())
}

/// Runs one phase on a fresh server over `B`, optionally with the
/// program's per-shard tracers on.
pub fn fresh<B: Backing>(
    cat: &Catalog,
    workers: usize,
    pool_ticks: bool,
    tracer_cap: Option<usize>,
    log: &mut SpanLog,
) -> Result<(Phase, ShardedServer<B>), String> {
    let mut server = cat.server::<B>(log.epoch(), &mut SpanLog::new(false, log.epoch()));
    if let Some(cap) = tracer_cap {
        server = server.with_shard_tracers(cap);
    }
    let p = run(cat, &mut server, workers, pool_ticks, log)?;
    Ok((p, server))
}
