//! The three workloads: a seeded catalog, a capacity derived from that
//! catalog's demanded rate, and a request schedule in simulated time.
//!
//! The server sees only what is built here: captured objects registered in
//! a `ShardedDb`, a `Capacity`, a cache budget, and timestamped requests.

use crate::probe::{SpanLog, Timed};
use crate::util::Rng;
use std::time::Instant;
use tbm_blob::{BlobStore, FaultPlan, FaultyBlobStore, MemBlobStore};
use tbm_codec::dct::DctParams;
use tbm_interp::capture::capture_video_scalable;
use tbm_interp::Interpretation;
use tbm_media::gen::{render_frames, VideoPattern};
use tbm_player::{demanded_rate, schedule_from_interp};
use tbm_serve::{shard_of, Capacity, ShardedDb, ShardedServer};
use tbm_time::{Rational, TimeDelta, TimePoint, TimeSystem};

/// PAL: every object is 25 frames per second.
pub const FPS: i64 = 25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HotFlashCrowd,
    ColdLongtail,
    InteractiveChurn,
}

impl Kind {
    pub const ALL: [Kind; 3] = [
        Kind::HotFlashCrowd,
        Kind::ColdLongtail,
        Kind::InteractiveChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::HotFlashCrowd => "hot_flash_crowd",
            Kind::ColdLongtail => "cold_longtail",
            Kind::InteractiveChurn => "interactive_churn",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Size of a workload: fixed per kind, so the seed varies content, names,
/// placement order and schedule, never the amount of work.
struct Shape {
    shards: usize,
    objects: usize,
    frames: usize,
    width: u32,
    height: u32,
    clients: usize,
    /// Zipf exponent of object popularity (0 = uniform).
    zipf: f64,
}

fn shape(kind: Kind) -> Shape {
    match kind {
        Kind::HotFlashCrowd => Shape {
            shards: 8,
            objects: 16,
            frames: 16,
            width: 176,
            height: 144,
            clients: 8192,
            zipf: 0.0,
        },
        Kind::ColdLongtail => Shape {
            shards: 8,
            objects: 16,
            frames: 16,
            width: 352,
            height: 288,
            clients: 1024,
            zipf: 1.0,
        },
        Kind::InteractiveChurn => Shape {
            shards: 8,
            objects: 16,
            frames: 50,
            width: 176,
            height: 144,
            clients: 1000,
            zipf: 0.8,
        },
    }
}

/// Mean simulated gap between churn session arrivals, in seconds.
const CHURN_MEAN_GAP_S: f64 = 0.025;
/// Churn storage and decode rates, each as a share of the offered
/// full-fidelity demand.
const CHURN_SHARE: f64 = 0.6;
/// Per-read probability of a transient storage fault under churn.
const CHURN_TRANSIENT_RATE: f64 = 0.01;
/// Fixed per-element dispatch overhead charged by every capacity.
const OVERHEAD_US: u64 = 20;

/// One scripted client action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    Open(usize),
    Play,
    Pause,
    Seek(TimePoint),
    SetRate(u32, u32),
    Close,
}

/// A request due at `at` from client `client`.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub at: TimePoint,
    pub client: usize,
    pub action: Action,
}

/// One catalog object as the generator made it.
#[derive(Debug)]
pub struct Object {
    pub name: String,
    pub shard: usize,
    pub bytes: u64,
    /// Full-fidelity demanded rate in bytes per second.
    pub demand: f64,
    /// Sessions the schedule opens on it.
    pub sessions: usize,
}

/// A built workload: catalog bytes, capacity, cache budget and schedule.
#[derive(Debug)]
pub struct Catalog {
    pub kind: Kind,
    pub seed: u64,
    pub objects: Vec<Object>,
    pub capacity: Capacity,
    pub cache_budget: u64,
    pub events: Vec<Event>,
    pub clients: usize,
    /// Elements the schedule must serve, where it is known in closed form.
    pub expected_elements: Option<u64>,
    stores: Vec<MemBlobStore>,
    interps: Vec<Interpretation>,
}

/// Picks a name for object `index` that routes to `target` under the
/// workload's routing seed, so every shard owns the same number of
/// objects whatever the seed.
fn placed_name(kind: Kind, seed: u64, index: usize, target: usize, shards: usize) -> String {
    (0u32..)
        .map(|k| format!("{}-{seed:x}-{index}-{k}", kind.name()))
        .find(|n| shard_of(n, seed, shards) == target)
        .expect("some name routes to every shard")
}

/// Popularity rank `r`'s shard: a snake over the shards, so each shard
/// gets one object from every band of popularity.
fn snake(r: usize, shards: usize) -> usize {
    let (band, pos) = (r / shards, r % shards);
    if band % 2 == 0 {
        pos
    } else {
        shards - 1 - pos
    }
}

/// Object `index`'s content: the pattern and its parameters are fixed by
/// index (so the catalog's byte mix and capture cost do not depend on the
/// seed); the first frame is drawn from the seed.
fn pattern(index: usize, rng: &mut Rng) -> (VideoPattern, u64) {
    let first = rng.below(1000);
    let p = match index % 3 {
        0 => VideoPattern::MovingBar,
        1 => VideoPattern::ShiftingGradient,
        _ => VideoPattern::Checkerboard(2 + (index / 3 % 4) as u32),
    };
    (p, first)
}

/// Sessions per popularity rank: largest-remainder quotas of a Zipf law,
/// so the counts are fixed by the shape and only their order is seeded.
fn quotas(objects: usize, clients: usize, zipf: f64) -> Vec<usize> {
    let w: Vec<f64> = (0..objects)
        .map(|r| 1.0 / ((r + 1) as f64).powf(zipf))
        .collect();
    let total: f64 = w.iter().sum();
    let exact: Vec<f64> = w.iter().map(|x| x * clients as f64 / total).collect();
    let mut q: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut rest: Vec<usize> = (0..objects).collect();
    rest.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = clients - q.iter().sum::<usize>();
    for &r in rest.iter().take(short) {
        q[r] += 1;
    }
    q
}

/// Churn clients act on the frame clock: a scripted time in µs is rounded
/// up to the next 40 ms tick, so the requests that fall in one frame share
/// the drive that serves the frame's due work.
fn on_tick(us: f64) -> TimePoint {
    const TICK_US: i64 = 1_000_000 / FPS;
    let ticks = (us / TICK_US as f64).ceil() as i64;
    TimePoint::ZERO + TimeDelta::from_micros(ticks * TICK_US)
}

/// Frame `pos` on the stream timeline.
fn frame_time(pos: usize) -> TimePoint {
    TimePoint::from_seconds(Rational::new(pos as i64, FPS))
}

impl Catalog {
    /// Renders and captures the catalog, derives its capacity and builds
    /// the schedule. Setup steps are recorded into `log`.
    pub fn build(kind: Kind, seed: u64, log: &mut SpanLog) -> Catalog {
        let sh = shape(kind);
        let mut rng = Rng::new(seed ^ kind as u64);
        let mut stores: Vec<MemBlobStore> = (0..sh.shards).map(|_| MemBlobStore::new()).collect();
        let quota = quotas(sh.objects, sh.clients, sh.zipf);
        let mut objects = Vec::with_capacity(sh.objects);
        let mut interps = Vec::with_capacity(sh.objects);
        for (i, &sessions) in quota.iter().enumerate() {
            let shard = snake(i, sh.shards);
            let name = placed_name(kind, seed, i, shard, sh.shards);
            let (pat, first) = pattern(i, &mut rng);
            let t0 = Instant::now();
            let frames = render_frames(pat, first, sh.frames, sh.width, sh.height);
            let t1 = Instant::now();
            let (blob, captured) = capture_video_scalable(
                &mut stores[shard],
                &frames,
                TimeSystem::PAL,
                DctParams::default(),
            )
            .expect("capture into an in-memory store cannot fail");
            let t2 = Instant::now();
            log.record("setup.render", t0, t1, i as u64);
            log.record("setup.capture", t1, t2, i as u64);
            let stream = captured
                .stream("video1")
                .expect("capture names its stream video1")
                .clone();
            let jobs = schedule_from_interp(&stream, None);
            let demand = demanded_rate(&jobs, stream.system())
                .map(|r| r.to_f64())
                .unwrap_or(0.0);
            objects.push(Object {
                name: name.clone(),
                shard,
                bytes: stream.total_bytes(),
                demand,
                sessions,
            });
            let mut interp = Interpretation::new(blob);
            interp
                .add_stream(&name, stream)
                .expect("fresh interpretation has no streams");
            interps.push(interp);
        }

        let mut events = Vec::new();
        let mut expected = 0u64;
        let mut clients: Vec<usize> = quota
            .iter()
            .enumerate()
            .flat_map(|(obj, &n)| std::iter::repeat_n(obj, n))
            .collect();
        rng.shuffle(&mut clients);
        let (capacity, cache_budget) = match kind {
            Kind::HotFlashCrowd => {
                for (c, &obj) in clients.iter().enumerate() {
                    events.push(Event {
                        at: TimePoint::ZERO,
                        client: c,
                        action: Action::Open(obj),
                    });
                    events.push(Event {
                        at: TimePoint::ZERO,
                        client: c,
                        action: Action::Play,
                    });
                    expected += sh.frames as u64;
                }
                // Every session at once, with room to spare: nothing is
                // degraded or late, and the whole catalog fits the cache.
                let busiest = shard_demand(&objects, sh.shards)
                    .into_iter()
                    .fold(0.0, f64::max);
                let cap = provision(busiest, 4.0, 4.0);
                (cap, max_shard_bytes(&objects, sh.shards) * 2)
            }
            Kind::ColdLongtail => {
                for (c, &obj) in clients.iter().enumerate() {
                    let offset = rng.below(sh.frames as u64) as usize;
                    events.push(Event {
                        at: TimePoint::ZERO,
                        client: c,
                        action: Action::Open(obj),
                    });
                    events.push(Event {
                        at: TimePoint::ZERO,
                        client: c,
                        action: Action::Seek(frame_time(offset)),
                    });
                    events.push(Event {
                        at: TimePoint::ZERO,
                        client: c,
                        action: Action::Play,
                    });
                    expected += (sh.frames - offset) as u64;
                }
                let busiest = shard_demand(&objects, sh.shards)
                    .into_iter()
                    .fold(0.0, f64::max);
                let cap = provision(busiest, 2.0, 2.0);
                // A sixteenth of a shard's share of the catalog: sessions
                // sit at different offsets, so almost every layer misses.
                let total: u64 = objects.iter().map(|o| o.bytes).sum();
                (cap, total / sh.shards as u64 / 16)
            }
            Kind::InteractiveChurn => {
                let mut t = 0.0f64;
                for (c, &obj) in clients.iter().enumerate() {
                    t += rng.exp(CHURN_MEAN_GAP_S * 1e6);
                    script(&mut events, &mut rng, c, obj, t, sh.frames);
                }
                events.sort_by(|a, b| a.at.cmp(&b.at).then(a.client.cmp(&b.client)));
                // Offered load of the mean shard: arrivals per second times
                // the nominal session length, at each object's share.
                let length_s = sh.frames as f64 / FPS as f64;
                let concurrent = length_s / CHURN_MEAN_GAP_S / sh.clients as f64;
                let mean = shard_demand(&objects, sh.shards).iter().sum::<f64>() / sh.shards as f64;
                let cap = provision(mean * concurrent, CHURN_SHARE, CHURN_SHARE)
                    .with_cache_aware_admission();
                (cap, max_shard_bytes(&objects, sh.shards) / 4)
            }
        };
        Catalog {
            kind,
            seed,
            objects,
            capacity,
            cache_budget,
            events,
            clients: sh.clients,
            expected_elements: (kind != Kind::InteractiveChurn).then_some(expected),
            stores,
            interps,
        }
    }

    pub fn shards(&self) -> usize {
        self.stores.len()
    }

    /// Total catalog bytes.
    pub fn bytes(&self) -> u64 {
        self.objects.iter().map(|o| o.bytes).sum()
    }

    /// A fresh server over a copy of the captured stores, each wrapped by
    /// `B`. Registration of every object is recorded into `log`.
    pub fn server<B: Backing>(&self, epoch: Instant, log: &mut SpanLog) -> ShardedServer<B> {
        let stores = self
            .stores
            .iter()
            .enumerate()
            .map(|(i, s)| B::make(self, i, s.clone(), epoch))
            .collect();
        let mut db = ShardedDb::with_stores(stores, self.seed);
        for (i, interp) in self.interps.iter().enumerate() {
            let t0 = Instant::now();
            db.register_interpretation(interp.clone())
                .expect("generated objects register on their own shard");
            log.record("setup.register", t0, Instant::now(), i as u64);
        }
        ShardedServer::new(db, self.capacity).with_cache_budget(self.cache_budget)
    }

    /// The transient-fault plan of shard `i` (churn only).
    fn fault_plan(&self, shard: usize) -> Option<FaultPlan> {
        (self.kind == Kind::InteractiveChurn).then(|| {
            FaultPlan::new(self.seed.wrapping_mul(31).wrapping_add(shard as u64))
                .with_transient(CHURN_TRANSIENT_RATE)
        })
    }

    /// The captured interpretation of object `i`.
    pub fn interp(&self, i: usize) -> &Interpretation {
        &self.interps[i]
    }

    /// Shard `i`'s captured store, as the server's copy starts out.
    pub fn store(&self, i: usize) -> &MemBlobStore {
        &self.stores[i]
    }
}

/// One churn client: arrive, open and play, then up to three of pause and
/// resume, seek, or rate change at exponential gaps, and sometimes close.
fn script(
    events: &mut Vec<Event>,
    rng: &mut Rng,
    client: usize,
    obj: usize,
    arrive_us: f64,
    frames: usize,
) {
    let mut push = |at: f64, action: Action| {
        events.push(Event {
            at: on_tick(at),
            client,
            action,
        })
    };
    push(arrive_us, Action::Open(obj));
    push(arrive_us, Action::Play);
    let mut t = arrive_us;
    for _ in 0..rng.below(4) {
        t += rng.exp(600_000.0);
        match rng.below(3) {
            0 => {
                push(t, Action::Pause);
                t += 200_000.0 + rng.unit() * 600_000.0;
                push(t, Action::Play);
            }
            1 => push(
                t,
                Action::Seek(frame_time(rng.below(frames as u64) as usize)),
            ),
            _ => {
                let (num, den) = [(1, 2), (3, 2), (2, 1), (1, 1)][rng.below(4) as usize];
                push(t, Action::SetRate(num, den));
            }
        }
    }
    if rng.below(10) < 4 {
        push(t + rng.exp(500_000.0), Action::Close);
    }
}

/// Each shard's demanded rate with every scheduled session playing at
/// once, in bytes per second.
fn shard_demand(objects: &[Object], shards: usize) -> Vec<f64> {
    let mut d = vec![0.0; shards];
    for o in objects {
        d[o.shard] += o.demand * o.sessions as f64;
    }
    d
}

/// A per-shard capacity from an offered demanded rate (bytes/s), scaled by
/// the storage and decode shares.
fn provision(offered: f64, storage: f64, decode: f64) -> Capacity {
    Capacity::new((offered * storage) as u64)
        .with_decode_rate((offered * decode) as u64)
        .with_overhead_us(OVERHEAD_US)
}

fn max_shard_bytes(objects: &[Object], shards: usize) -> u64 {
    (0..shards)
        .map(|s| {
            objects
                .iter()
                .filter(|o| o.shard == s)
                .map(|o| o.bytes)
                .sum()
        })
        .max()
        .unwrap_or(0)
}

/// The store each shard's server runs on, built from a copy of the
/// captured in-memory store.
pub trait Backing: BlobStore + Sized {
    fn make(cat: &Catalog, shard: usize, store: MemBlobStore, epoch: Instant) -> Self;
}

impl Backing for MemBlobStore {
    fn make(_: &Catalog, _: usize, store: MemBlobStore, _: Instant) -> Self {
        store
    }
}

impl Backing for FaultyBlobStore<MemBlobStore> {
    fn make(cat: &Catalog, shard: usize, store: MemBlobStore, _: Instant) -> Self {
        let plan = cat
            .fault_plan(shard)
            .expect("only the churn workload runs on a faulty store");
        FaultyBlobStore::new(store, plan)
    }
}

impl<B: Backing> Backing for Timed<B> {
    fn make(cat: &Catalog, shard: usize, store: MemBlobStore, epoch: Instant) -> Self {
        Timed::new(B::make(cat, shard, store, epoch), epoch)
    }
}
