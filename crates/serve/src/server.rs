//! The delivery engine: a deterministic, simulated-time event loop driving
//! many sessions through one shared service channel.
//!
//! One [`Server`] owns a catalog ([`MediaDb`]) over a [`BlobStore`], a
//! [`SegmentCache`], and a [`Capacity`]. Requests arrive timestamped in
//! simulated time ([`Server::request`]); element fetches are served in
//! earliest-deadline-first order across *all* playing sessions through a
//! single channel whose service rate is the capacity's cost model — the
//! aggregate storage bandwidth and decode throughput admission reasons
//! about. Everything is exact rational time, so a run is a pure function of
//! its request trace (and a fault plan's seed, if the store injects one).
//!
//! Per element the server walks the same ladder as
//! [`tbm_player::ResilientPlayer`]: cache lookup, then a retried read,
//! then per-layer checksum verification, then the
//! [`DegradationPolicy`] ladder (base layers → repeat → drop) for anything
//! unrecoverable. Only verified bytes enter the cache, so one session's
//! intact read shields every later session from a deterministic storage
//! fault at the same span.

use crate::session::ServePlan;
use crate::{
    AdmissionPolicy, AdmitDecision, Capacity, RejectReason, Request, Response, SegmentCache,
    ServeError, ServerStats, Session, SessionState, SessionStats,
};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::io;
use tbm_blob::{BlobStore, MemBlobStore, ReadCtx, RetryPolicy};
use tbm_core::{crc32, BlobId, SessionId};
use tbm_db::MediaDb;
use tbm_interp::StreamInterp;
use tbm_obs::{
    attribute, chrome_trace_to_writer, micros, AttributionReport, Category, MetricsRegistry,
    SpanId, TraceSnapshot, Tracer, ATTR_DECODE_US, ATTR_ELEMENT_INDEX, ATTR_FAILOVER_US,
    ATTR_INHERITED_US, ATTR_LATENESS_US, ATTR_NODELOSS_US, ATTR_RETRY_US, ATTR_STORAGE_US,
    ATTR_WAIT_US, ELEMENT_SPAN, LATENCY_BUCKETS_US,
};
use tbm_player::{demanded_rate, schedule_from_interp, DegradationPolicy, ElementFate, ElementJob};
use tbm_time::{Rational, TimeDelta, TimePoint};

// Registry metric names. Counters mirror the snapshot fields of
// `ServerStats`; the histograms back its lateness/service distributions.
const M_ADMITTED: &str = "serve.sessions.admitted";
const M_ADMITTED_DEGRADED: &str = "serve.sessions.admitted_degraded";
const M_REJECTED: &str = "serve.sessions.rejected";
const M_ELEMENTS: &str = "serve.elements.served";
const M_MISSES: &str = "serve.elements.misses";
const M_RECOVERED: &str = "serve.elements.recovered";
const M_DEGRADED: &str = "serve.elements.degraded";
const M_DROPPED: &str = "serve.elements.dropped";
const M_REPAIRED: &str = "serve.elements.repaired";
const M_UPGRADED: &str = "serve.sessions.upgraded";
const M_FORCED: &str = "serve.sessions.force_degraded";
const M_FAULTS: &str = "serve.faults.detected";
const M_BYTES_READ: &str = "storage.bytes_read";
const M_BATCHES: &str = "serve.batches";
const H_LATENESS: &str = "serve.lateness_us";
const H_LATENESS_FULL: &str = "serve.lateness_us.full";
const H_LATENESS_DEGRADED: &str = "serve.lateness_us.degraded";
const H_SERVICE: &str = "serve.service_us";
const H_READ: &str = "storage.read_us";
const G_CACHE_BYTES: &str = "cache.bytes";

/// One queued element fetch. Ordering is `(deadline, session, pos)` so the
/// heap is a deterministic earliest-deadline-first queue.
///
/// The heap holds at most one *live* entry per session — the session's next
/// due element; serving it queues the successor. Schedules are in deadline
/// order (per-session deadlines are monotone in `pos`), so popping session
/// heads in `(deadline, session, pos)` order yields exactly the global
/// serve order an enqueue-everything heap would, with the heap at
/// O(sessions) instead of O(elements) — the difference between 100k
/// concurrent sessions fitting in one process or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct QueuedJob {
    deadline: TimePoint,
    session: u64,
    pos: usize,
    epoch: u64,
}

/// The cache-aware storage multiplier for one session: the fraction of the
/// bytes its remaining plan will fetch that are *not* resident in the
/// segment cache (1 = nothing resident, 0 = everything). Residency is
/// probed with [`SegmentCache::contains`], which touches neither recency
/// nor the hit/miss counters, so pricing a session never perturbs the
/// cache state other sessions see.
fn residency_discount(
    cache: &SegmentCache,
    blob: BlobId,
    plans: &[ServePlan],
    pending: &BTreeSet<usize>,
) -> Rational {
    if !cache.is_enabled() {
        return Rational::ONE;
    }
    let (mut total, mut resident) = (0u64, 0u64);
    for &pos in pending {
        for span in &plans[pos].spans {
            total += span.len;
            if cache.contains(blob, *span) {
                resident += span.len;
            }
        }
    }
    if total == 0 {
        Rational::ONE
    } else {
        Rational::new((total - resident) as i64, total as i64)
    }
}

/// Like [`residency_discount`], but priced at admission time straight from
/// the stream's interpretation entries (capped at `layers` placement
/// layers per element) — before any session plan exists.
fn admission_discount(
    cache: &SegmentCache,
    blob: BlobId,
    entries: &[tbm_interp::ElementEntry],
    layers: Option<usize>,
) -> Rational {
    if !cache.is_enabled() {
        return Rational::ONE;
    }
    let (mut total, mut resident) = (0u64, 0u64);
    for e in entries {
        let all = e.placement.layers();
        let take = layers.unwrap_or(all.len()).min(all.len()).max(1);
        for span in &all[..take] {
            total += span.len;
            if cache.contains(blob, *span) {
                resident += span.len;
            }
        }
    }
    if total == 0 {
        Rational::ONE
    } else {
        Rational::new((total - resident) as i64, total as i64)
    }
}

/// The per-element read plans for `jobs`: every placement layer, or the
/// first `cap` of them, each with its recorded checksum.
fn serve_plans(stream: &StreamInterp, jobs: &[ElementJob], cap: Option<usize>) -> Vec<ServePlan> {
    jobs.iter()
        .map(|j| {
            let entry = &stream.entries()[j.index];
            let all = entry.placement.layers();
            let take = cap.unwrap_or(all.len()).min(all.len()).max(1);
            ServePlan {
                spans: all[..take].to_vec(),
                checksums: entry.checksums.iter().copied().take(take).collect(),
            }
        })
        .collect()
}

/// A multi-session media delivery engine over a catalog and a BLOB store.
///
/// See the crate docs for the scheduling model. Typical use:
///
/// 1. build a [`MediaDb`] and register the objects to serve;
/// 2. wrap it in a server with a [`Capacity`] and (optionally) a cache;
/// 3. submit [`Request`]s in non-decreasing simulated time;
/// 4. call [`Server::finish`] to drain the event loop and read the
///    [`ServerStats`] snapshot.
#[derive(Debug)]
pub struct Server<S: BlobStore = MemBlobStore> {
    db: MediaDb<S>,
    capacity: Capacity,
    cache: SegmentCache,
    retry: RetryPolicy,
    policy: DegradationPolicy,
    sessions: Vec<Session>,
    /// First session id this server hands out; ids are `base..base+n`.
    /// Non-zero only under a [`crate::ShardedServer`], which gives each
    /// shard a disjoint id range so a session id alone names its shard
    /// (and trace session ids never collide across shards).
    session_base: u64,
    heap: BinaryHeap<Reverse<QueuedJob>>,
    clock: TimePoint,
    busy_until: TimePoint,
    /// Node-outage stall: no element dispatches before this instant. Set by
    /// a fleet during a shard migration's catalog handoff (or while the
    /// hosting node is down); the extra delay is attributed to `node-loss`
    /// rather than channel wait. [`TimePoint::ZERO`] when never stalled.
    stall_until: TimePoint,
    /// Storage-stage admitted demand: the sum of every active session's
    /// `charged` figure (residency-discounted under cache-aware admission,
    /// equal to full demand otherwise).
    committed: Rational,
    /// Decode-stage admitted demand: the sum of every active session's
    /// *full* demand. Cache hits skip the fetch but not the decode, so
    /// this total is never residency-discounted. Identical to `committed`
    /// when cache-aware admission is off.
    committed_decode: Rational,
    /// Sessions still holding committed capacity (`!released`); kept in
    /// step by [`Server::release`], so admission counts in O(1).
    active: usize,
    /// Slots of the active sessions running under a layer cap
    /// (`layers_cap.is_some()`), ascending — all the upgrade pass visits.
    capped: BTreeSet<usize>,
    /// [`SegmentCache::generation`] at the last repricing pass; an
    /// unchanged generation lets the pass be skipped entirely.
    repriced_gen: u64,
    /// While set, [`Server::force_degrade`] is in effect: the automatic
    /// upgrade path leaves capped sessions alone (otherwise the very next
    /// served element would lift a remediation-forced cap right back).
    upgrade_hold: bool,
    /// Raw ids of sessions capped by [`Server::force_degrade`] —
    /// exactly the set [`Server::release_degrade`] restores.
    forced: BTreeSet<u64>,
    metrics: MetricsRegistry,
    tracer: Tracer,
    /// Scratch for the same-deadline batch the loop is currently serving;
    /// kept on the server so its allocation is reused across batches.
    batch: VecDeque<QueuedJob>,
    /// When set (and a tracer is attached), every same-deadline batch is
    /// recorded as a [`Category::Sched`] span. Off by default so existing
    /// traces stay byte-identical.
    batch_spans: bool,
}

impl<S: BlobStore> Server<S> {
    /// A server over `db` with the given capacity, no cache, 3 retries and
    /// the [`DegradationPolicy::DropLayers`] ladder.
    pub fn new(db: MediaDb<S>, capacity: Capacity) -> Server<S> {
        Server {
            db,
            capacity,
            cache: SegmentCache::disabled(),
            retry: RetryPolicy::new(3),
            policy: DegradationPolicy::DropLayers,
            sessions: Vec::new(),
            session_base: 0,
            heap: BinaryHeap::new(),
            clock: TimePoint::ZERO,
            busy_until: TimePoint::ZERO,
            stall_until: TimePoint::ZERO,
            committed: Rational::ZERO,
            committed_decode: Rational::ZERO,
            active: 0,
            capped: BTreeSet::new(),
            repriced_gen: 0,
            upgrade_hold: false,
            forced: BTreeSet::new(),
            metrics: MetricsRegistry::new(),
            tracer: Tracer::disabled(),
            batch: VecDeque::new(),
            batch_spans: false,
        }
    }

    /// Builder: records every same-deadline batch the event loop serves as
    /// a `"batch"` span in the [`Category::Sched`] category (span start =
    /// the shared deadline, end = the instant the channel frees up, `jobs`
    /// attr = elements served in the batch). Off by default: batch spans
    /// are scheduler diagnostics, and leaving them out keeps traces
    /// byte-identical with runs recorded before batching existed.
    pub fn with_batch_spans(mut self) -> Server<S> {
        self.batch_spans = true;
        self
    }

    /// Builder: attaches a shared segment cache.
    pub fn with_cache(mut self, cache: SegmentCache) -> Server<S> {
        self.cache = cache;
        self
    }

    /// Builder: attaches a cache with the given byte budget.
    pub fn with_cache_budget(self, budget_bytes: u64) -> Server<S> {
        self.with_cache(SegmentCache::new(budget_bytes))
    }

    /// Builder: sets the per-read retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Server<S> {
        self.retry = retry;
        self
    }

    /// Builder: sets the per-element degradation policy.
    pub fn with_degradation(mut self, policy: DegradationPolicy) -> Server<S> {
        self.policy = policy;
        self
    }

    /// Builder: offsets the session ids this server allocates to
    /// `base..base+n`. A [`crate::ShardedServer`] gives shard `i` the base
    /// `i << 32`, so every session id in the fleet is unique and encodes
    /// its owning shard.
    pub fn with_session_base(mut self, base: u64) -> Server<S> {
        assert!(
            self.sessions.is_empty(),
            "session base must be set before any session is admitted"
        );
        self.session_base = base;
        self
    }

    /// The first session id this server allocates (0 unless offset by
    /// [`Server::with_session_base`]).
    pub fn session_base(&self) -> u64 {
        self.session_base
    }

    /// Builder: attaches a tracer. Every session lifecycle step, admission
    /// verdict, element service interval, cache lookup and deadline miss is
    /// recorded on the simulated clock. Attach a *clone* of the same tracer
    /// to a `FaultyBlobStore` wrapping this server's store and injected
    /// faults land in the same timeline.
    pub fn with_tracer(mut self, tracer: Tracer) -> Server<S> {
        self.tracer = tracer;
        self
    }

    /// The attached tracer (disabled unless set via
    /// [`Server::with_tracer`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The metrics registry backing [`Server::stats`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// An owned snapshot of the trace collected so far.
    pub fn trace(&self) -> TraceSnapshot {
        self.tracer.snapshot()
    }

    /// Writes the collected trace as Chrome `trace_event` JSON (loadable in
    /// Perfetto or `chrome://tracing`).
    pub fn trace_to_writer(&self, w: &mut dyn io::Write) -> io::Result<()> {
        chrome_trace_to_writer(&self.tracer.snapshot(), w)
    }

    /// Walks the collected trace and assigns exactly one cause to every
    /// deadline miss. See [`tbm_obs::attribution`] for the rules.
    pub fn attribution(&self) -> AttributionReport {
        attribute(&self.tracer.snapshot().records)
    }

    /// The catalog being served.
    pub fn db(&self) -> &MediaDb<S> {
        &self.db
    }

    /// Recovers the catalog, dropping the server state.
    pub fn into_db(self) -> MediaDb<S> {
        self.db
    }

    /// The capacity model.
    pub fn capacity(&self) -> Capacity {
        self.capacity
    }

    /// Replaces the capacity model mid-run — the fleet lever for a node
    /// whose hosted-shard count (or brownout-derated budget) just changed.
    /// Already-admitted sessions keep playing against the new cost model;
    /// new arrivals are admitted against the new budget; and a *larger*
    /// budget immediately lifts degraded-admission sessions back to full
    /// fidelity where it fits ([`Server::finish`] semantics are unchanged).
    pub fn set_capacity(&mut self, capacity: Capacity) {
        self.capacity = capacity;
        self.try_upgrade_sessions(self.clock);
    }

    /// Stalls the service channel until `until` (monotone: an earlier call
    /// with a later instant wins). A fleet sets this across a shard
    /// migration's catalog handoff and while the hosting node is down, so
    /// elements queued before the move complete after it — paying the
    /// outage as an explicitly attributed `node-loss` component instead of
    /// disappearing or masquerading as channel wait.
    pub fn set_stall_until(&mut self, until: TimePoint) {
        self.stall_until = self.stall_until.max(until);
    }

    /// The current node-outage stall horizon ([`TimePoint::ZERO`] when the
    /// channel was never stalled).
    pub fn stall_until(&self) -> TimePoint {
        self.stall_until
    }

    /// The server clock: the latest simulated time processed.
    pub fn clock(&self) -> TimePoint {
        self.clock
    }

    /// All sessions ever admitted, in admission order (including finished
    /// and closed ones).
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// A session by id.
    pub fn session(&self, id: SessionId) -> Option<&Session> {
        self.checked_slot(id).map(|i| &self.sessions[i])
    }

    /// The slot of a known-valid session id (ids are `base + slot`).
    fn slot(&self, id: SessionId) -> usize {
        (id.raw() - self.session_base) as usize
    }

    /// The slot of `id`, or `None` when the id was never allocated here
    /// (wrong shard, or simply unknown).
    fn checked_slot(&self, id: SessionId) -> Option<usize> {
        id.raw()
            .checked_sub(self.session_base)
            .map(|i| i as usize)
            .filter(|&i| i < self.sessions.len())
    }

    /// The shared segment cache's counters.
    pub fn cache_stats(&self) -> crate::CacheStats {
        self.cache.stats()
    }

    /// Submits a request at simulated time `at` (non-decreasing across
    /// calls). The event loop first serves every element due by `at`, then
    /// applies the request and answers with a typed [`Response`].
    pub fn request(&mut self, at: TimePoint, request: Request) -> Result<Response, ServeError> {
        if at < self.clock {
            return Err(ServeError::NonMonotonicTime {
                at,
                clock: self.clock,
            });
        }
        self.run_until(at);
        match request {
            Request::Open { object } => self.open(&object),
            Request::Play { session } => self.play(at, session),
            Request::Pause { session } => self.pause(session),
            Request::Seek { session, to } => self.seek(at, session, to),
            Request::SetRate { session, num, den } => self.set_rate(at, session, num, den),
            Request::Close { session } => self.close(session),
        }
    }

    /// Serves every queued element whose deadline is at or before `to`,
    /// advancing the clock to `to`.
    pub fn run_until(&mut self, to: TimePoint) {
        self.drain(Some(to));
        self.clock = self.clock.max(to);
    }

    /// Drains the event loop completely — every queued element of every
    /// playing session is served — and returns the final statistics.
    /// Opened or paused sessions keep their capacity; close them first if
    /// the run is over.
    pub fn finish(&mut self) -> ServerStats {
        self.drain_all();
        self.stats()
    }

    /// Full drain without the stats materialisation — what the parallel
    /// shard pool calls per shard, collecting stats afterwards in shard
    /// order.
    pub(crate) fn drain_all(&mut self) {
        self.drain(None);
        self.clock = self.clock.max(self.busy_until);
    }

    /// Whether any queued element is due at or before `to` — the sharded
    /// front end's cheap "is a parallel drive worth spawning" probe.
    pub(crate) fn has_due(&self, to: TimePoint) -> bool {
        self.heap.peek().is_some_and(|&Reverse(j)| j.deadline <= to)
    }

    /// Whether any element is queued at all (the finish-drain probe).
    pub(crate) fn has_queued(&self) -> bool {
        !self.heap.is_empty()
    }

    /// The event loop: serves due elements in `(deadline, session, pos)`
    /// order, batching runs that share a deadline.
    ///
    /// A batch is the run of heap entries at the earliest due deadline,
    /// popped together and served back to back. Two rules keep the serve
    /// order *exactly* what popping one entry at a time would produce:
    ///
    /// 1. **Chain rule** — after serving a session's element, its successor
    ///    joins the *front* of the batch when it lands on the same deadline
    ///    (every remaining batch entry belongs to a later session id), and
    ///    goes to the heap otherwise (per-session deadlines are monotone,
    ///    so it can never undercut the batch).
    /// 2. **Preemption guard** — serving an element can re-anchor *other*
    ///    sessions (the upgrade path), pushing fresh heap entries at
    ///    arbitrary deadlines. Before each serve the batch head is compared
    ///    with the heap top; if the heap now holds an earlier job, the
    ///    remaining batch is pushed back and the loop restarts from the
    ///    true minimum.
    fn drain(&mut self, limit: Option<TimePoint>) {
        'outer: while let Some(&Reverse(top)) = self.heap.peek() {
            if limit.is_some_and(|to| top.deadline > to) {
                break;
            }
            let d = top.deadline;
            while let Some(&Reverse(j)) = self.heap.peek() {
                if j.deadline != d {
                    break;
                }
                self.heap.pop();
                self.batch.push_back(j);
            }
            let batch_span = if self.batch_spans {
                self.tracer
                    .begin_span("batch", Category::Sched, d, SpanId::NONE, None)
            } else {
                SpanId::NONE
            };
            let mut served_in_batch = 0u64;
            while let Some(job) = self.batch.pop_front() {
                if let Some(&Reverse(t)) = self.heap.peek() {
                    if t < job {
                        // A mid-serve push outranks the batch: fall back to
                        // the heap so the global order is preserved.
                        self.heap.push(Reverse(job));
                        while let Some(rest) = self.batch.pop_front() {
                            self.heap.push(Reverse(rest));
                        }
                        self.finish_batch(batch_span, served_in_batch, d);
                        continue 'outer;
                    }
                }
                if self.serve_job(job) {
                    served_in_batch += 1;
                    if let Some(next) = self.successor_of(job) {
                        if next.deadline == d {
                            self.batch.push_front(next);
                        } else {
                            self.heap.push(Reverse(next));
                        }
                    }
                }
            }
            self.finish_batch(batch_span, served_in_batch, d);
        }
    }

    /// Closes a batch: counts it and (when enabled) closes its sched span.
    fn finish_batch(&mut self, span: SpanId, served: u64, deadline: TimePoint) {
        if served > 0 {
            self.metrics.inc(M_BATCHES, 1);
        }
        if !span.is_none() {
            self.tracer.attr(span, "jobs", served);
            self.tracer.end_span(span, self.busy_until.max(deadline));
        }
    }

    /// The next due element of the session `job` belonged to, if the serve
    /// left it playing on the same schedule generation.
    fn successor_of(&self, job: QueuedJob) -> Option<QueuedJob> {
        let idx = (job.session - self.session_base) as usize;
        let s = &self.sessions[idx];
        if s.epoch != job.epoch || s.state != SessionState::Playing {
            // Finished, paused, closed, or re-anchored (upgrade/force): any
            // live continuation was queued with a fresh epoch already.
            return None;
        }
        let &pos = s.pending.first()?;
        Some(QueuedJob {
            deadline: s.queued_deadline(pos),
            session: job.session,
            pos,
            epoch: s.epoch,
        })
    }

    /// A point-in-time statistics snapshot, materialised from the metrics
    /// registry.
    pub fn stats(&self) -> ServerStats {
        let mut active = 0usize;
        let mut finished = 0usize;
        let mut closed = 0usize;
        for s in &self.sessions {
            match s.state {
                SessionState::Finished => finished += 1,
                SessionState::Closed => closed += 1,
                _ => active += 1,
            }
        }
        let m = &self.metrics;
        let degraded_elements = m.counter(M_DEGRADED) as usize;
        let dropped_elements = m.counter(M_DROPPED) as usize;
        let repaired_elements = m.counter(M_REPAIRED) as usize;
        let faults_detected = m.counter(M_FAULTS) as usize;
        // Every detected fault must be resolved exactly once: out of the
        // degradation ladder as a degraded or dropped element, or healed by
        // a cross-tier repair that left the element intact.
        debug_assert_eq!(
            faults_detected,
            degraded_elements + dropped_elements + repaired_elements,
            "fault accounting invariant violated in snapshot"
        );
        ServerStats {
            active_sessions: active,
            finished_sessions: finished,
            closed_sessions: closed,
            admitted: m.counter(M_ADMITTED) as usize,
            admitted_degraded: m.counter(M_ADMITTED_DEGRADED) as usize,
            rejected: m.counter(M_REJECTED) as usize,
            elements_served: m.counter(M_ELEMENTS) as usize,
            deadline_misses: m.counter(M_MISSES) as usize,
            recovered: m.counter(M_RECOVERED) as usize,
            degraded_elements,
            dropped_elements,
            repaired_elements,
            faults_detected,
            upgraded_sessions: m.counter(M_UPGRADED) as usize,
            cache: self.cache.stats(),
            storage_bytes_read: m.counter(M_BYTES_READ),
            committed_bps: self.committed.floor().max(0) as u64,
            lateness: m.histogram_or_empty(H_LATENESS, &LATENCY_BUCKETS_US),
            service: m.histogram_or_empty(H_SERVICE, &LATENCY_BUCKETS_US),
        }
    }

    // ------------------------------------------------------------------
    // Request handlers
    // ------------------------------------------------------------------

    /// Runs admission control and, when admitted, creates the session.
    fn open(&mut self, object: &str) -> Result<Response, ServeError> {
        debug_assert_eq!(
            self.active,
            self.sessions.iter().filter(|s| s.is_active()).count()
        );
        debug_assert!(self.capped.iter().copied().eq(self
            .sessions
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_active() && s.layers_cap.is_some())
            .map(|(slot, _)| slot)));
        let active = self.active;
        let (interp, stream) = self.db.stream_of(object)?;
        let blob = interp.blob();
        let system = stream.system();
        let full_jobs = schedule_from_interp(stream, None);
        let full_demand = demanded_rate(&full_jobs, system).unwrap_or(Rational::ZERO);
        let scalable = stream
            .entries()
            .iter()
            .any(|e| e.placement.layer_count() > 1);

        // Admission prices storage demand against the capacity the store
        // can actually deliver right now: an open tier breaker derates the
        // bandwidth the gate hands out, steering new sessions onto the
        // degraded path until the tier heals (they are upgraded back by
        // `try_upgrade_sessions`).
        let gate = self.capacity.derated(self.db.store().health_percent());
        // Cache-aware admission prices the *storage* stage at the demand
        // discounted by current residency (`Rational::ONE` off-flag or with
        // the cache disabled); the decode stage always pays in full, since
        // a cache hit skips the fetch but not the decode.
        let full_discount = if gate.cache_aware {
            admission_discount(&self.cache, blob, stream.entries(), None)
        } else {
            Rational::ONE
        };
        let (decision, layers) = match self.capacity.policy {
            AdmissionPolicy::AdmitAll => (AdmitDecision::Admitted, None),
            AdmissionPolicy::Enforce => {
                if active >= self.capacity.max_sessions {
                    (
                        AdmitDecision::Rejected {
                            reason: RejectReason::SessionLimit {
                                max: self.capacity.max_sessions,
                            },
                        },
                        None,
                    )
                } else if gate.fits_staged(
                    self.committed,
                    self.committed_decode,
                    full_demand * full_discount,
                    full_demand,
                ) {
                    (AdmitDecision::Admitted, None)
                } else {
                    let base_jobs = schedule_from_interp(stream, Some(1));
                    let base_demand = demanded_rate(&base_jobs, system).unwrap_or(Rational::ZERO);
                    let base_discount = if gate.cache_aware {
                        admission_discount(&self.cache, blob, stream.entries(), Some(1))
                    } else {
                        Rational::ONE
                    };
                    if scalable
                        && gate.fits_staged(
                            self.committed,
                            self.committed_decode,
                            base_demand * base_discount,
                            base_demand,
                        )
                    {
                        (AdmitDecision::Degraded { layers: 1 }, Some(1))
                    } else {
                        let cheapest = if scalable { base_demand } else { full_demand };
                        let headroom = Rational::from(gate.service_rate() as i64) - self.committed;
                        (
                            AdmitDecision::Rejected {
                                reason: RejectReason::Saturated {
                                    demanded_bps: cheapest.floor().max(0) as u64,
                                    available_bps: headroom.floor().max(0) as u64,
                                },
                            },
                            None,
                        )
                    }
                }
            }
        };

        let verdict = match decision {
            AdmitDecision::Admitted => "admitted",
            AdmitDecision::Degraded { .. } => "degraded",
            AdmitDecision::Rejected { .. } => "rejected",
        };
        if !decision.is_admitted() {
            self.metrics.inc(M_REJECTED, 1);
            self.tracer.event(
                "admission",
                Category::Admission,
                self.clock,
                SpanId::NONE,
                None,
                vec![
                    ("object", object.to_owned().into()),
                    ("verdict", verdict.into()),
                ],
            );
            return Ok(Response::Opened {
                session: None,
                decision,
            });
        }

        let jobs = match layers {
            None => full_jobs,
            Some(l) => schedule_from_interp(stream, Some(l)),
        };
        let demand = demanded_rate(&jobs, system).unwrap_or(Rational::ZERO);
        let charged = if gate.cache_aware {
            demand
                * match layers {
                    None => full_discount,
                    Some(_) => admission_discount(&self.cache, blob, stream.entries(), layers),
                }
        } else {
            demand
        };
        let plans = serve_plans(stream, &jobs, layers);

        let id = SessionId::new(self.session_base + self.sessions.len() as u64);
        let pending: BTreeSet<usize> = (0..jobs.len()).collect();
        match decision {
            AdmitDecision::Degraded { .. } => self.metrics.inc(M_ADMITTED_DEGRADED, 1),
            _ => self.metrics.inc(M_ADMITTED, 1),
        }
        self.committed += charged;
        self.committed_decode += demand;
        let mut attrs = vec![
            ("object", object.to_owned().into()),
            ("verdict", verdict.into()),
        ];
        if gate.cache_aware {
            // Only under the flag, so off-flag traces stay byte-identical.
            attrs.push(("charged_bps", (charged.floor().max(0) as u64).into()));
        }
        self.tracer.event(
            "admission",
            Category::Admission,
            self.clock,
            SpanId::NONE,
            Some(id.raw()),
            attrs,
        );
        let span = self.tracer.begin_span(
            "session",
            Category::Session,
            self.clock,
            SpanId::NONE,
            Some(id.raw()),
        );
        self.tracer.attr(span, "object", object.to_owned());
        self.active += 1;
        if layers.is_some() {
            self.capped.insert(self.sessions.len());
        }
        self.sessions.push(Session {
            id,
            object: object.to_owned(),
            blob,
            state: SessionState::Opened,
            decision,
            system,
            jobs,
            plans,
            pending,
            epoch: 0,
            rate: (1, 1),
            play_time: TimePoint::ZERO,
            anchor_rel: Rational::ZERO,
            clock_base: None,
            layers_cap: layers,
            full_unit_demand: full_demand,
            unit_demand: demand,
            demand,
            charged,
            released: false,
            have_good: false,
            stats: SessionStats::default(),
            span,
            last_ready: TimePoint::ZERO,
            last_lateness_us: 0,
        });
        Ok(Response::Opened {
            session: Some(id),
            decision,
        })
    }

    fn session_mut(&mut self, id: SessionId) -> Result<&mut Session, ServeError> {
        self.checked_slot(id)
            .map(|i| &mut self.sessions[i])
            .ok_or(ServeError::UnknownSession { session: id })
    }

    /// Queues the earliest pending element of `id` under its current
    /// anchor — the session's single live heap entry; the event loop queues
    /// each successor as it serves (see [`QueuedJob`]).
    fn enqueue_next(&mut self, id: SessionId) {
        let s = &self.sessions[self.slot(id)];
        if let Some(&pos) = s.pending.first() {
            self.heap.push(Reverse(QueuedJob {
                deadline: s.queued_deadline(pos),
                session: s.id.raw(),
                pos,
                epoch: s.epoch,
            }));
        }
    }

    fn play(&mut self, at: TimePoint, id: SessionId) -> Result<Response, ServeError> {
        let s = self.session_mut(id)?;
        if !matches!(s.state, SessionState::Opened | SessionState::Paused) {
            return Err(ServeError::BadState {
                session: id,
                state: s.state,
                request: "Play",
            });
        }
        if s.pending.is_empty() {
            s.state = SessionState::Finished;
            let span = s.span;
            self.release(self.slot(id));
            self.tracer.event(
                "session.play",
                Category::Session,
                at,
                span,
                Some(id.raw()),
                vec![("queued", 0u64.into())],
            );
            self.tracer.end_span(span, at);
            self.try_upgrade_sessions(at);
            return Ok(Response::Playing {
                session: id,
                queued: 0,
            });
        }
        s.state = SessionState::Playing;
        s.anchor(at);
        let queued = s.pending.len();
        let span = s.span;
        self.tracer.event(
            "session.play",
            Category::Session,
            at,
            span,
            Some(id.raw()),
            vec![("queued", queued.into())],
        );
        self.enqueue_next(id);
        Ok(Response::Playing {
            session: id,
            queued,
        })
    }

    fn pause(&mut self, id: SessionId) -> Result<Response, ServeError> {
        let s = self.session_mut(id)?;
        if s.state != SessionState::Playing {
            return Err(ServeError::BadState {
                session: id,
                state: s.state,
                request: "Pause",
            });
        }
        s.state = SessionState::Paused;
        s.epoch += 1; // queued jobs of the old epoch become stale
        let remaining = s.pending.len();
        let span = s.span;
        self.tracer.event(
            "session.pause",
            Category::Session,
            self.clock,
            span,
            Some(id.raw()),
            vec![("remaining", remaining.into())],
        );
        Ok(Response::Paused {
            session: id,
            remaining,
        })
    }

    fn seek(
        &mut self,
        at: TimePoint,
        id: SessionId,
        to: TimePoint,
    ) -> Result<Response, ServeError> {
        let s = self.session_mut(id)?;
        if !s.is_active() {
            return Err(ServeError::BadState {
                session: id,
                state: s.state,
                request: "Seek",
            });
        }
        // Everything at or after `to` on the unit-rate stream timeline
        // becomes pending again; a backwards seek re-presents elements.
        s.pending = s
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.deadline >= to)
            .map(|(pos, _)| pos)
            .collect();
        s.epoch += 1;
        let remaining = s.pending.len();
        let span = s.span;
        let state = s.state;
        self.tracer.event(
            "session.seek",
            Category::Session,
            at,
            span,
            Some(id.raw()),
            vec![
                ("to_us", tbm_obs::micros_of(to).into()),
                ("remaining", remaining.into()),
            ],
        );
        if state == SessionState::Playing {
            if remaining == 0 {
                let slot = self.slot(id);
                self.sessions[slot].state = SessionState::Finished;
                self.release(slot);
                self.tracer.end_span(span, at);
                self.try_upgrade_sessions(at);
            } else {
                let slot = self.slot(id);
                self.sessions[slot].anchor(at);
                self.enqueue_next(id);
            }
        }
        Ok(Response::Sought {
            session: id,
            remaining,
        })
    }

    fn set_rate(
        &mut self,
        at: TimePoint,
        id: SessionId,
        num: u32,
        den: u32,
    ) -> Result<Response, ServeError> {
        if num == 0 || den == 0 {
            return Err(ServeError::BadRate { num, den });
        }
        let committed = self.committed;
        let committed_decode = self.committed_decode;
        let capacity = self.capacity;
        {
            let s = self.session_mut(id)?;
            if !s.is_active() {
                return Err(ServeError::BadState {
                    session: id,
                    state: s.state,
                    request: "SetRate",
                });
            }
        }
        let slot = self.slot(id);
        let s = &self.sessions[slot];
        // Faster playback demands proportionally more bytes per second;
        // re-run the admission check on the delta (residency-discounted on
        // the storage stage under cache-aware admission).
        let new_demand = s.unit_demand * Rational::new(num as i64, den as i64);
        let new_charged = if capacity.cache_aware {
            new_demand * residency_discount(&self.cache, s.blob, &s.plans, &s.pending)
        } else {
            new_demand
        };
        if capacity.policy == AdmissionPolicy::Enforce
            && !capacity.fits_staged(
                committed - s.charged,
                committed_decode - s.demand,
                new_charged,
                new_demand,
            )
        {
            return Ok(Response::RateSet {
                session: id,
                accepted: false,
            });
        }
        let s = &mut self.sessions[slot];
        let old = s.demand;
        let old_charged = s.charged;
        s.demand = new_demand;
        s.charged = new_charged;
        s.rate = (num, den);
        let span = s.span;
        self.committed = committed - old_charged + new_charged;
        self.committed_decode = committed_decode - old + new_demand;
        self.tracer.event(
            "session.rate",
            Category::Session,
            at,
            span,
            Some(id.raw()),
            vec![("num", num.into()), ("den", den.into())],
        );
        let slot = self.slot(id);
        if self.sessions[slot].state == SessionState::Playing {
            self.sessions[slot].anchor(at);
            self.enqueue_next(id);
        }
        Ok(Response::RateSet {
            session: id,
            accepted: true,
        })
    }

    fn close(&mut self, id: SessionId) -> Result<Response, ServeError> {
        let s = self.session_mut(id)?;
        if s.state == SessionState::Closed {
            return Err(ServeError::BadState {
                session: id,
                state: s.state,
                request: "Close",
            });
        }
        s.state = SessionState::Closed;
        s.epoch += 1;
        let stats = s.stats;
        let span = s.span;
        self.release(self.slot(id));
        self.tracer.event(
            "session.close",
            Category::Session,
            self.clock,
            span,
            Some(id.raw()),
            vec![("elements", stats.elements.into())],
        );
        self.tracer.end_span(span, self.clock);
        self.try_upgrade_sessions(self.clock);
        Ok(Response::Closed { session: id, stats })
    }

    /// Abandons every unserved element of every active session at `at` —
    /// what a node loss looks like when nobody migrates the shard away.
    /// Each abandoned element is accounted as a dropped element backed by a
    /// detected fault (so `faults == degraded + dropped + repaired` and
    /// `service.count == elements_served` keep holding, with zero recorded
    /// service), the sessions close, and their capacity is released.
    /// Returns the number of elements shed.
    ///
    /// The fleet's **no-migration baseline** calls this for shards whose
    /// node died; the migrating fleet never does — the gap between the two
    /// is exactly the serves migration saves.
    pub fn shed_pending(&mut self, at: TimePoint) -> usize {
        let mut shed_total = 0usize;
        for idx in 0..self.sessions.len() {
            let s = &mut self.sessions[idx];
            if !s.is_active() || s.pending.is_empty() {
                continue;
            }
            let shed = s.pending.len();
            s.pending.clear();
            s.epoch += 1; // queued jobs of the old schedule go stale
            s.state = SessionState::Closed;
            s.stats.elements += shed;
            s.stats.dropped += shed;
            let span = s.span;
            let id = s.id;
            self.release(idx);
            self.metrics.inc(M_ELEMENTS, shed as u64);
            self.metrics.inc(M_DROPPED, shed as u64);
            self.metrics.inc(M_FAULTS, shed as u64);
            for _ in 0..shed {
                self.metrics.observe(H_SERVICE, &LATENCY_BUCKETS_US, 0);
            }
            self.tracer.event(
                "session.shed",
                Category::Session,
                at,
                span,
                Some(id.raw()),
                vec![("shed", shed.into())],
            );
            self.tracer.end_span(span, at);
            shed_total += shed;
        }
        if shed_total > 0 {
            self.try_upgrade_sessions(at);
        }
        shed_total
    }

    /// Returns a finished or closed session's committed capacity and takes
    /// it out of the active count and the capped index — the one place
    /// `released` flips, so a second call is a no-op.
    fn release(&mut self, slot: usize) {
        let s = &mut self.sessions[slot];
        if !std::mem::replace(&mut s.released, true) {
            self.committed -= s.charged;
            self.committed_decode -= s.demand;
            self.active -= 1;
            self.capped.remove(&slot);
        }
    }

    /// Re-derives every active session's storage charge from current cache
    /// residency — the "re-evaluate admitted sessions as residency shifts"
    /// half of cache-aware admission. A session admitted cheaply against a
    /// hot cache is re-charged when its segments are evicted, and one
    /// admitted cold sheds charge as its spans become resident. Skipped in
    /// one integer compare unless the cache's resident set actually changed
    /// since the last pass ([`SegmentCache::generation`]).
    fn reprice_sessions(&mut self) {
        // No is_enabled() gate: disabling the cache mid-run (budget 0)
        // evicts everything, and the sessions priced against residency
        // must be re-charged full demand — residency_discount reads a
        // disabled cache as zero-resident. A never-enabled cache stays at
        // generation 0 and returns below.
        let generation = self.cache.generation();
        if generation == self.repriced_gen {
            return;
        }
        self.repriced_gen = generation;
        for idx in 0..self.sessions.len() {
            let s = &self.sessions[idx];
            if !s.is_active() || s.released {
                continue;
            }
            let new_charged =
                s.demand * residency_discount(&self.cache, s.blob, &s.plans, &s.pending);
            let old_charged = s.charged;
            if new_charged != old_charged {
                self.sessions[idx].charged = new_charged;
                self.committed = self.committed - old_charged + new_charged;
            }
        }
    }

    /// Re-admits degraded-fidelity sessions at full fidelity — the recovery
    /// half of the degraded admission path. A capped session (`layers_cap`)
    /// is upgraded when the store is fully healthy again (every tier
    /// breaker closed) *and* the full-fidelity demand fits the committed
    /// headroom. Runs at every capacity-release point (finish, close, empty
    /// play/seek) and after every served element, so a breaker closing
    /// mid-run is picked up without a session event. The pass walks the
    /// capped index in ascending slot order, not every session the server
    /// ever opened, so with nothing capped it returns after one empty-set
    /// check.
    fn try_upgrade_sessions(&mut self, now: TimePoint) {
        // If cache residency shifted since the last pass, reprice every
        // active session's storage charge first, so the upgrade checks
        // below — and the next admissions — see current headroom.
        if self.capacity.cache_aware && self.capacity.policy == AdmissionPolicy::Enforce {
            self.reprice_sessions();
        }
        if self.upgrade_hold {
            return; // a forced degradation is in effect; nothing lifts it
        }
        if self.capacity.policy == AdmissionPolicy::AdmitAll {
            return; // AdmitAll never degrades, so there is nothing to lift
        }
        if self
            .capped
            .iter()
            .all(|&slot| self.sessions[slot].pending.is_empty())
        {
            return;
        }
        if self.db.store().health_percent() < 100 {
            return; // a tier is still open; keep sessions on the cheap path
        }
        let mut from = 0;
        while let Some(&idx) = self.capped.range(from..).next() {
            from = idx + 1;
            let s = &self.sessions[idx];
            if s.pending.is_empty() {
                continue;
            }
            let (num, den) = s.rate;
            let new_demand = s.full_unit_demand * Rational::new(num as i64, den as i64);
            // Upgrades gate at the full, undiscounted demand even under
            // cache-aware admission (conservative: the layers an upgrade
            // adds are exactly the ones least likely to be resident); the
            // charge `replan` books is discounted.
            if self.capacity.fits_staged(
                self.committed - s.charged,
                self.committed_decode - s.demand,
                new_demand,
                new_demand,
            ) {
                self.replan(idx, None, now);
            }
        }
    }

    /// Re-plans session `idx` at `cap` layers per element (`None` = full
    /// fidelity) and re-prices it: swaps in the new jobs and plans,
    /// rebalances both committed totals, keeps the capped index, counts the
    /// upgrade (or forced degrade), records it at `at`, and re-anchors the
    /// remaining elements — queued jobs of the old epoch go stale, exactly
    /// as for Seek/SetRate. Returns `false`, changing nothing, when the
    /// catalog reshaped under the session or a cap would shed nothing from
    /// a single-layer stream.
    fn replan(&mut self, idx: usize, cap: Option<usize>, at: TimePoint) -> bool {
        let Ok((_, stream)) = self.db.stream_of(&self.sessions[idx].object) else {
            return false;
        };
        if cap.is_some()
            && !stream
                .entries()
                .iter()
                .any(|e| e.placement.layer_count() > 1)
        {
            return false; // nothing to shed on a single-layer stream
        }
        let jobs = schedule_from_interp(stream, cap);
        let plans = serve_plans(stream, &jobs, cap);
        let s = &mut self.sessions[idx];
        if jobs.len() != s.jobs.len() {
            return false; // catalog reshaped under the session; keep the plan
        }
        let unit = match cap {
            None => s.full_unit_demand,
            Some(_) => demanded_rate(&jobs, stream.system()).unwrap_or(Rational::ZERO),
        };
        let (num, den) = s.rate;
        let new_demand = unit * Rational::new(num as i64, den as i64);
        let new_charged = if self.capacity.cache_aware {
            new_demand * residency_discount(&self.cache, s.blob, &plans, &s.pending)
        } else {
            new_demand
        };
        self.committed = self.committed - s.charged + new_charged;
        self.committed_decode = self.committed_decode - s.demand + new_demand;
        s.jobs = jobs;
        s.plans = plans;
        s.layers_cap = cap;
        s.unit_demand = unit;
        s.demand = new_demand;
        s.charged = new_charged;
        let (remaining, id, span) = (s.pending.len(), s.id, s.span);
        let (event, metric) = match cap {
            None => {
                s.decision = AdmitDecision::Admitted;
                self.capped.remove(&idx);
                ("session.upgrade", M_UPGRADED)
            }
            Some(layers) => {
                s.decision = AdmitDecision::Degraded { layers };
                self.capped.insert(idx);
                ("session.force_degrade", M_FORCED)
            }
        };
        self.metrics.inc(metric, 1);
        self.tracer.event(
            event,
            Category::Session,
            at,
            span,
            Some(id.raw()),
            vec![("remaining", remaining.into())],
        );
        if self.sessions[idx].state == SessionState::Playing {
            self.sessions[idx].anchor(at);
            self.enqueue_next(id);
        } else {
            self.sessions[idx].epoch += 1;
        }
        true
    }

    /// Forces every active full-fidelity session with work left onto its
    /// base layer — the remediation plane's degradation lever, the paper's
    /// Def. 6 rule ("materialize a cheaper variant when too slow") applied
    /// fleet-wide. Each forced session is re-planned at one layer, its
    /// demand re-priced, and its remaining elements re-anchored at `at`;
    /// non-scalable streams are left alone. Sets a sticky hold so the
    /// automatic upgrade path cannot lift the cap (it otherwise runs after
    /// every served element); [`Server::release_degrade`] clears the hold
    /// and restores exactly the sessions forced here. Returns the number
    /// of sessions degraded.
    pub fn force_degrade(&mut self, at: TimePoint) -> usize {
        self.upgrade_hold = true;
        let at = at.max(self.clock);
        let mut count = 0usize;
        for idx in 0..self.sessions.len() {
            let s = &self.sessions[idx];
            if !s.is_active() || s.layers_cap.is_some() || s.pending.is_empty() {
                continue;
            }
            let id = s.id.raw();
            if self.replan(idx, Some(1), at) {
                self.forced.insert(id);
                count += 1;
            }
        }
        count
    }

    /// Lifts a [`Server::force_degrade`]: clears the upgrade hold and
    /// restores every still-active forced session to its full-fidelity
    /// plan and demand (the rollback restores the pre-action state even if
    /// capacity shrank meanwhile — `committed` only gates *new*
    /// admissions). Organically degraded sessions then get their usual
    /// upgrade shot. Returns the number of sessions restored.
    pub fn release_degrade(&mut self, at: TimePoint) -> usize {
        self.upgrade_hold = false;
        let at = at.max(self.clock);
        let forced: Vec<u64> = std::mem::take(&mut self.forced).into_iter().collect();
        let mut count = 0usize;
        for raw in forced {
            let Some(idx) = self.checked_slot(SessionId::new(raw)) else {
                continue;
            };
            let s = &self.sessions[idx];
            if !s.is_active() || s.layers_cap.is_none() || s.pending.is_empty() {
                continue;
            }
            if self.replan(idx, None, at) {
                count += 1;
            }
        }
        self.try_upgrade_sessions(at);
        count
    }

    /// Replaces the segment cache's byte budget mid-run, returning the
    /// previous one ([`SegmentCache::set_budget`] semantics: a shrink
    /// evicts LRU segments immediately).
    pub fn set_cache_budget(&mut self, budget_bytes: u64) -> u64 {
        let prev = self.cache.set_budget(budget_bytes);
        self.metrics
            .set_gauge(G_CACHE_BYTES, self.cache.bytes_cached() as i64);
        // A shrink can evict spans that admitted sessions were priced
        // against; re-charge them right away so the very next admission
        // sees honest headroom.
        if self.capacity.cache_aware && self.capacity.policy == AdmissionPolicy::Enforce {
            self.reprice_sessions();
        }
        prev
    }

    // ------------------------------------------------------------------
    // The service channel
    // ------------------------------------------------------------------

    /// Serves one queued element fetch: cache lookup, retried+verified
    /// layer reads, the degradation ladder, and exact-rational timing
    /// through the shared channel. Returns `false` for a stale entry
    /// (nothing served), `true` after a real serve — the event loop queues
    /// the session's successor only in the latter case.
    fn serve_job(&mut self, job: QueuedJob) -> bool {
        let idx = (job.session - self.session_base) as usize;
        {
            let s = &self.sessions[idx];
            if s.epoch != job.epoch || s.state != SessionState::Playing {
                return false; // stale: paused, re-anchored or closed since queueing
            }
        }
        let store = self.db.store();
        let s = &mut self.sessions[idx];
        let plan = &s.plans[job.pos];
        let blob = s.blob;

        // The channel dispatches this element when it frees up (or at the
        // anchor, whichever is later) — known before any read happens, so
        // the element span and the injected-fault events of the reads below
        // all land at the right simulated instant. A node-outage stall
        // (migration handoff) can only push dispatch later; the difference
        // is attributed to `node-loss` below, never to channel wait.
        let natural_start = self.busy_until.max(s.play_time);
        let start = natural_start.max(self.stall_until);
        self.tracer.set_now(start);
        // A tiered store runs its breakers and outage scripts on the same
        // simulated instant the element is dispatched at.
        store.set_sim_now(start);
        // Slack before this element is late — the store's hedging budget.
        // None until the presentation clock is established.
        let slack_us = s
            .presentation_deadline(job.pos)
            .map(|d| micros((d - start).max(TimeDelta::ZERO).seconds()) as u64);
        let span = self.tracer.begin_span(
            ELEMENT_SPAN,
            Category::Serve,
            start,
            s.span,
            Some(job.session),
        );
        self.tracer.attr(span, ATTR_ELEMENT_INDEX, job.pos);

        // Fetch every allowed layer, stopping at the first bad one. Bytes
        // are split into first-attempt reads and retry re-reads so the
        // element's service time can be attributed to storage vs. retries.
        let mut bytes_first = 0u64;
        let mut bytes_retry = 0u64;
        let mut bytes_decoded = 0u64;
        let mut backoff_us = 0u64;
        let mut attempts_max = 1u32;
        let mut intact_layers = 0usize;
        for (li, &layer_span) in plan.spans.iter().enumerate() {
            if self.cache.get(blob, layer_span).is_some() {
                s.stats.cache_hits += 1;
                bytes_decoded += layer_span.len;
                intact_layers += 1;
                self.tracer.event(
                    "cache.hit",
                    Category::Cache,
                    start,
                    span,
                    Some(job.session),
                    vec![("layer", li.into()), ("bytes", layer_span.len.into())],
                );
                continue;
            }
            s.stats.cache_misses += 1;
            self.tracer.event(
                "cache.miss",
                Category::Cache,
                start,
                span,
                Some(job.session),
                vec![("layer", li.into()), ("bytes", layer_span.len.into())],
            );
            let expected_crc = plan.checksums.get(li).copied();
            let (result, report) = self.retry.run(|attempt| {
                let mut buf = vec![0u8; layer_span.len as usize];
                let ctx = ReadCtx {
                    attempt,
                    deadline_slack_us: slack_us,
                    expected_crc,
                };
                store
                    .read_into_ctx(blob, layer_span, &mut buf, &ctx)
                    .map(|()| buf)
            });
            bytes_first += layer_span.len;
            bytes_retry += layer_span.len * (report.attempts.saturating_sub(1)) as u64;
            bytes_decoded += layer_span.len;
            backoff_us += report.backoff_spent_us;
            attempts_max = attempts_max.max(report.attempts);
            let intact = match result {
                Ok(bytes) => {
                    let ok = match expected_crc {
                        Some(sum) => crc32(&bytes) == sum,
                        None => true, // no checksum recorded: trust the read
                    };
                    if ok {
                        self.cache.insert(blob, layer_span, bytes);
                    }
                    ok
                }
                Err(_) => false,
            };
            if !intact {
                self.metrics.inc(M_FAULTS, 1);
                break;
            }
            intact_layers += 1;
        }
        let bytes_from_store = bytes_first + bytes_retry;
        self.metrics.inc(M_BYTES_READ, bytes_from_store);
        // Tier accounting: the slice of the store's latency hint spent on
        // failed attempts and slow-tier failover serves, and whether a tier
        // was healed from a verifying peer during these reads. Zero for
        // single-backend stores.
        let failover_us = store.drain_failover_hint_us();
        let repairs = store.drain_repairs();

        // The same ladder as ResilientPlayer, expressed per session.
        let fate = if intact_layers == plan.spans.len() {
            if attempts_max > 1 {
                ElementFate::Recovered {
                    attempts: attempts_max,
                }
            } else {
                ElementFate::Intact
            }
        } else {
            match self.policy {
                DegradationPolicy::DropLayers if intact_layers > 0 => ElementFate::BaseLayers {
                    layers: intact_layers,
                },
                DegradationPolicy::DropLayers | DegradationPolicy::RepeatLast => {
                    if s.have_good {
                        ElementFate::Repeated
                    } else {
                        ElementFate::Dropped
                    }
                }
                DegradationPolicy::Skip => ElementFate::Dropped,
            }
        };
        let fate_label = match fate {
            ElementFate::Intact => "intact",
            ElementFate::Recovered { .. } => "recovered",
            ElementFate::BaseLayers { .. } => "base-layers",
            ElementFate::Repeated => "repeated",
            ElementFate::Dropped => "dropped",
        };
        match fate {
            ElementFate::Intact => s.have_good = true,
            ElementFate::Recovered { .. } => {
                s.have_good = true;
                s.stats.recovered += 1;
                self.metrics.inc(M_RECOVERED, 1);
            }
            ElementFate::BaseLayers { .. } => {
                s.have_good = true;
                s.stats.degraded += 1;
                self.metrics.inc(M_DEGRADED, 1);
            }
            ElementFate::Repeated => {
                s.stats.degraded += 1;
                self.metrics.inc(M_DEGRADED, 1);
            }
            ElementFate::Dropped => {
                s.stats.dropped += 1;
                self.metrics.inc(M_DROPPED, 1);
            }
        }
        // A cross-tier repair that still produced a fully intact element is
        // a detected fault resolved by healing instead of degradation — the
        // third leg of the fault-accounting partition. Elements that end
        // degraded or dropped anyway keep their single ladder fault.
        if repairs > 0 && intact_layers == plan.spans.len() {
            s.stats.repaired += 1;
            self.metrics.inc(M_REPAIRED, 1);
            self.metrics.inc(M_FAULTS, 1);
        }

        // Timing through the shared channel: cache hits skip the storage
        // transfer but still pay decode and dispatch; retries re-read. The
        // total is decomposed into the components miss attribution ranks:
        // first-attempt storage transfer (+ the store's latency hint),
        // retry re-reads (+ backoff), and decode (+ dispatch overhead).
        // Their sum is exactly the old single-`cost` formula, so timing is
        // bit-identical to the untraced engine.
        let model = self.capacity.cost_model();
        let bw = model.bandwidth.max(1) as i64;
        let first_cost = Rational::new(bytes_first as i64, bw);
        let retry_cost = Rational::new(bytes_retry as i64, bw);
        let mut decode_cost = Rational::new(model.overhead_us as i64, 1_000_000);
        if model.decode_rate > 0 {
            decode_cost += Rational::new(bytes_decoded as i64, model.decode_rate as i64);
        }
        let hint_us = store.drain_cost_hint_us();
        let penalty_us = backoff_us + hint_us;
        let service = TimeDelta::from_seconds(first_cost + retry_cost + decode_cost)
            + TimeDelta::from_micros(penalty_us as i64);
        // The failover share of the hint is split out so miss attribution
        // can rank tier failover separately from plain storage latency; the
        // sum (and hence the timing) is unchanged.
        let storage_us = micros(first_cost) + hint_us.saturating_sub(failover_us) as i64;
        let retry_us = micros(retry_cost) + backoff_us as i64;
        let decode_us = micros(decode_cost);
        let ready = start + service;
        self.busy_until = ready;

        // How long the element sat behind *other* traffic before dispatch:
        // channel wait beyond this session's own anchor/pipeline position.
        // The node-outage stall is split out so a handoff-delayed element
        // reads as `node-loss`, not admission over-commit; the two sum to
        // the old single wait, so timing is bit-identical when never
        // stalled.
        let wait_base = s.play_time.max(s.last_ready);
        let wait_us = micros((natural_start - wait_base).max(TimeDelta::ZERO).seconds());
        let nodeloss_us = micros((start - natural_start).seconds());

        // The presentation clock starts when the first element after the
        // anchor completes (a one-element startup buffer).
        let deadline = match s.presentation_deadline(job.pos) {
            Some(d) => d,
            None => {
                s.clock_base = Some(ready);
                ready
            }
        };
        let lateness = (ready - deadline).max(TimeDelta::ZERO);
        let lateness_us = micros(lateness.seconds());
        // Lateness carried over from the previous element's overrun: the
        // part of this miss that is inherited backlog, not this element's
        // own doing.
        let inherited_us = s.last_lateness_us.min(lateness_us).max(0);
        s.stats.elements += 1;
        self.metrics.inc(M_ELEMENTS, 1);
        self.metrics.observe(
            H_SERVICE,
            &LATENCY_BUCKETS_US,
            micros(service.seconds()) as u64,
        );
        if bytes_from_store > 0 {
            self.metrics.observe(
                H_READ,
                &LATENCY_BUCKETS_US,
                (storage_us + retry_us + failover_us as i64) as u64,
            );
        }
        if lateness > TimeDelta::ZERO {
            s.stats.misses += 1;
            self.metrics.inc(M_MISSES, 1);
            self.metrics
                .observe(H_LATENESS, &LATENCY_BUCKETS_US, lateness_us as u64);
            // The fidelity split feeds the telemetry plane: degraded
            // sessions' lateness is a different population (base-layer-only
            // admissions under pressure), and queries like "p99 lateness
            // for degraded sessions" need the two recorded apart.
            let by_fidelity = if matches!(s.decision, AdmitDecision::Degraded { .. }) {
                H_LATENESS_DEGRADED
            } else {
                H_LATENESS_FULL
            };
            self.metrics
                .observe(by_fidelity, &LATENCY_BUCKETS_US, lateness_us as u64);
            s.stats.max_lateness = s.stats.max_lateness.max(lateness);
        }
        s.last_ready = ready;
        s.last_lateness_us = lateness_us;
        self.metrics
            .set_gauge(G_CACHE_BYTES, self.cache.stats().bytes_cached as i64);

        self.tracer.attr(span, "fate", fate_label);
        self.tracer.attr(span, ATTR_WAIT_US, wait_us);
        self.tracer.attr(span, ATTR_NODELOSS_US, nodeloss_us);
        self.tracer.attr(span, ATTR_STORAGE_US, storage_us);
        self.tracer.attr(span, ATTR_RETRY_US, retry_us);
        self.tracer.attr(span, ATTR_FAILOVER_US, failover_us as i64);
        self.tracer.attr(span, ATTR_DECODE_US, decode_us);
        self.tracer.attr(span, ATTR_INHERITED_US, inherited_us);
        self.tracer.attr(span, ATTR_LATENESS_US, lateness_us);
        self.tracer.end_span(span, ready);

        s.pending.remove(&job.pos);
        if s.pending.is_empty() {
            s.state = SessionState::Finished;
            let root = s.span;
            self.release(idx);
            self.tracer.end_span(root, ready);
        }
        // After every served element: a finished session just released
        // capacity, and a tier breaker may have closed during the reads
        // above — both can lift a degraded session back to full fidelity.
        self.try_upgrade_sessions(ready);
        true
    }
}
