//! Outside-in instrumentation: a span recorder for the benchmark's own
//! calls into the program, and a timing [`BlobStore`] decorator.
//!
//! Nothing here reaches inside the program. Spans are opened around calls
//! to public functions (setup steps, `request`, `run_until`, `finish`); the
//! decorator sits outermost around each shard's store, so it sees exactly
//! the reads the server issues, retries included.

use std::cell::RefCell;
use std::io::{self, Write};
use std::time::Instant;
use tbm_blob::{BlobError, BlobStore, ByteSpan, ReadCtx};
use tbm_core::BlobId;
use tbm_time::TimePoint;

/// One recorded span: host wall-clock nanoseconds since the log's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// Enclosing span id, 0 for a root.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Session id, request number, object index or blob id, by span kind.
    pub key: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder. Disabled logs record nothing and cost one
/// branch per call; spans are written out only when the run ends.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(enabled: bool, epoch: Instant) -> SpanLog {
        SpanLog {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished root span; returns its id (0 when disabled).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, key: u64) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent: 0,
            name,
            start_ns,
            end_ns,
            key,
        });
        id
    }

    /// Adds child spans recorded elsewhere (the decorator's reads), giving
    /// each the innermost recorded span that contains it as its parent.
    /// Roots here never overlap (one driving thread), so containment is
    /// unambiguous.
    pub fn adopt(&mut self, name: &'static str, children: &[(u64, u64, u64)]) {
        if !self.enabled {
            return;
        }
        let mut roots: Vec<(u64, u64, u32)> = self
            .spans
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| (s.start_ns, s.end_ns, s.id))
            .collect();
        roots.sort_unstable();
        for &(start_ns, end_ns, key) in children {
            let i = roots.partition_point(|r| r.0 <= start_ns);
            let parent = match i.checked_sub(1).map(|i| roots[i]) {
                Some((_, end, id)) if end >= end_ns => id,
                _ => 0,
            };
            let id = self.spans.len() as u32 + 1;
            self.spans.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
                key,
            });
        }
    }

    /// Self time of every span named `name`: its duration minus the part
    /// of it that its children cover, summed.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len() + 1];
        for s in &self.spans {
            if s.parent != 0 {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() - covered_ns(&mut children[s.id as usize], s))
            .sum()
    }

    /// Total duration of every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Writes the spans as CSV rows `id,parent,name,start_ns,end_ns,key`,
    /// adding `id_offset` to every id, so several logs can share one file.
    /// Returns the offset for the next log.
    pub fn write_csv(&self, w: &mut dyn Write, id_offset: u32) -> io::Result<u32> {
        for s in &self.spans {
            let parent = if s.parent == 0 {
                0
            } else {
                s.parent + id_offset
            };
            writeln!(
                w,
                "{},{},{},{},{},{}",
                s.id + id_offset,
                parent,
                s.name,
                s.start_ns,
                s.end_ns,
                s.key
            )?;
        }
        Ok(id_offset + self.spans.len() as u32)
    }
}

/// Length of the union of `intervals`, clipped to `parent`.
fn covered_ns(intervals: &mut [(u64, u64)], parent: &Span) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = parent.start_ns;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(parent.end_ns));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// One read the decorator saw.
#[derive(Debug, Clone, Copy)]
pub struct ReadRec {
    pub start_ns: u64,
    pub end_ns: u64,
    pub blob: BlobId,
    pub span: ByteSpan,
    pub attempt: u32,
    pub ok: bool,
}

/// A timing decorator over any store: every read is timed and recorded,
/// every other call is passed through untouched.
#[derive(Debug)]
pub struct Timed<S> {
    inner: S,
    epoch: Instant,
    reads: RefCell<Vec<ReadRec>>,
}

impl<S: BlobStore> Timed<S> {
    pub fn new(inner: S, epoch: Instant) -> Timed<S> {
        Timed {
            inner,
            epoch,
            reads: RefCell::new(Vec::new()),
        }
    }

    pub fn reads(&self) -> std::cell::Ref<'_, Vec<ReadRec>> {
        self.reads.borrow()
    }

    fn timed(
        &self,
        blob: BlobId,
        span: ByteSpan,
        attempt: u32,
        read: impl FnOnce() -> Result<(), BlobError>,
    ) -> Result<(), BlobError> {
        let start = Instant::now();
        let result = read();
        let end = Instant::now();
        self.reads.borrow_mut().push(ReadRec {
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            blob,
            span,
            attempt,
            ok: result.is_ok(),
        });
        result
    }
}

impl<S: BlobStore> BlobStore for Timed<S> {
    fn create(&mut self) -> Result<BlobId, BlobError> {
        self.inner.create()
    }

    fn append(&mut self, blob: BlobId, data: &[u8]) -> Result<ByteSpan, BlobError> {
        self.inner.append(blob, data)
    }

    fn read_into(&self, blob: BlobId, span: ByteSpan, buf: &mut [u8]) -> Result<(), BlobError> {
        self.timed(blob, span, 0, || self.inner.read_into(blob, span, buf))
    }

    fn read_into_attempt(
        &self,
        blob: BlobId,
        span: ByteSpan,
        buf: &mut [u8],
        attempt: u32,
    ) -> Result<(), BlobError> {
        self.timed(blob, span, attempt, || {
            self.inner.read_into_attempt(blob, span, buf, attempt)
        })
    }

    fn read_into_ctx(
        &self,
        blob: BlobId,
        span: ByteSpan,
        buf: &mut [u8],
        ctx: &ReadCtx,
    ) -> Result<(), BlobError> {
        self.timed(blob, span, ctx.attempt, || {
            self.inner.read_into_ctx(blob, span, buf, ctx)
        })
    }

    fn drain_cost_hint_us(&self) -> u64 {
        self.inner.drain_cost_hint_us()
    }

    fn drain_failover_hint_us(&self) -> u64 {
        self.inner.drain_failover_hint_us()
    }

    fn drain_repairs(&self) -> u64 {
        self.inner.drain_repairs()
    }

    fn set_sim_now(&self, now: TimePoint) {
        self.inner.set_sim_now(now)
    }

    fn health_percent(&self) -> u8 {
        self.inner.health_percent()
    }

    fn len(&self, blob: BlobId) -> Result<u64, BlobError> {
        self.inner.len(blob)
    }

    fn contains(&self, blob: BlobId) -> bool {
        self.inner.contains(blob)
    }

    fn blob_ids(&self) -> Vec<BlobId> {
        self.inner.blob_ids()
    }
}
