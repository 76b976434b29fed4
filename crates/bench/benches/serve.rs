//! Serving-layer microbenchmarks: the segment cache's hit path vs miss
//! path, the end-to-end cost of a multi-session broadcast through the
//! event loop with the cache on and off, and the sharded storm's
//! staged-then-drained throughput at 1/2/4 workers (the
//! `exp_throughput` binary runs the same shape at scale and publishes
//! `BENCH_serve.json`), plus the CRC32 verify every storage read pays
//! before its bytes enter the cache and the exact `Rational` time
//! arithmetic every served element pays.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use tbm_blob::{ByteSpan, MemBlobStore};
use tbm_codec::dct::DctParams;
use tbm_core::{crc32, BlobId};
use tbm_db::MediaDb;
use tbm_interp::capture::capture_video_scalable;
use tbm_interp::Interpretation;
use tbm_media::gen::{render_frames, VideoPattern};
use tbm_obs::micros;
use tbm_serve::{
    shard_of, Capacity, Request, Response, SegmentCache, Server, ShardedDb, ShardedServer,
};
use tbm_time::{Rational, TimeDelta, TimePoint, TimeSystem};

const SEGMENT: u64 = 4096;

fn seeded_cache(spans: u64) -> (SegmentCache, BlobId) {
    let mut cache = SegmentCache::new(spans * SEGMENT * 2);
    let blob = BlobId::new(1);
    for i in 0..spans {
        cache.insert(
            blob,
            ByteSpan::new(i * SEGMENT, SEGMENT),
            vec![i as u8; SEGMENT as usize],
        );
    }
    (cache, blob)
}

fn bench_cache_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("segment_cache");
    let spans = 256u64;

    // Hit path: lookup + LRU refresh of a resident span.
    let (mut cache, blob) = seeded_cache(spans);
    g.bench_function("hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let span = ByteSpan::new((i % spans) * SEGMENT, SEGMENT);
            i += 1;
            black_box(cache.get(blob, span).is_some())
        })
    });

    // Miss path: lookup of an absent span (counter bump only).
    let (mut cache, blob) = seeded_cache(spans);
    g.bench_function("miss", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let span = ByteSpan::new((spans + (i % spans)) * SEGMENT, SEGMENT);
            i += 1;
            black_box(cache.get(blob, span).is_none())
        })
    });

    // Miss + fill: the full storage fallback including insert and eviction
    // once the budget saturates.
    g.bench_function("miss_then_insert_evicting", |b| {
        let (mut cache, blob) = seeded_cache(spans);
        let mut i = 0u64;
        b.iter(|| {
            let span = ByteSpan::new((spans + i) * SEGMENT, SEGMENT);
            i += 1;
            if cache.get(blob, span).is_none() {
                cache.insert(blob, span, vec![0u8; SEGMENT as usize]);
            }
            black_box(cache.bytes_cached())
        })
    });
    g.finish();
}

fn bench_checksum(c: &mut Criterion) {
    let mut g = c.benchmark_group("checksum/crc32");
    // The layer sizes a CIF element's scalable layers take (~1.5-6.5 KB).
    for &len in &[1_536usize, 3_712, 6_528] {
        let layer: Vec<u8> = (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_with_input(BenchmarkId::from_parameter(len), &layer, |b, layer| {
            b.iter(|| black_box(crc32(black_box(layer))))
        });
    }
    g.finish();
}

fn bench_rational(c: &mut Criterion) {
    let mut g = c.benchmark_group("time/rational");
    // The serve path's operand shapes, at hot_flash_crowd's provisioning:
    // one shard's storage bandwidth and decode rate (~368 MB/s each, 4x
    // the busiest shard's demand), a 20 us dispatch overhead, QCIF layers
    // of ~3 KB, PAL frame deadlines k/25 and playback rates num/den.
    const BANDWIDTH: i64 = 368_502_400;
    const DECODE_RATE: i64 = 368_502_400;
    const OVERHEAD_US: i64 = 20;
    let layers: Vec<i64> = (0..64).map(|i| 2_400 + (i * 37) % 1_100).collect();
    let rates = [(1i64, 1i64), (3, 2), (1, 2), (4, 3)];
    g.throughput(Throughput::Elements(layers.len() as u64));
    g.bench_function("deadline", |b| {
        b.iter(|| {
            let mut acc = Rational::ZERO;
            for (k, &(num, den)) in (0..layers.len() as i64).zip(rates.iter().cycle()) {
                let rel = Rational::new(k, 25) * Rational::new(den, num);
                acc = acc.max(black_box(rel) - Rational::new(1, 25));
            }
            acc
        })
    });
    g.bench_function("service_cost", |b| {
        b.iter(|| {
            let mut total = 0i64;
            for &bytes in &layers {
                let first = Rational::new(black_box(bytes), BANDWIDTH);
                let mut decode = Rational::new(OVERHEAD_US, 1_000_000);
                decode += Rational::new(bytes, DECODE_RATE);
                total += micros(first) + micros(decode) + micros(first + decode);
            }
            total
        })
    });
    g.finish();
}

fn hot_object() -> (MemBlobStore, Interpretation) {
    let frames: Vec<_> = (0..24u64)
        .map(|i| VideoPattern::MovingBar.render(i, 96, 64))
        .collect();
    let mut store = MemBlobStore::new();
    let (_blob, interp) =
        capture_video_scalable(&mut store, &frames, TimeSystem::PAL, DctParams::default()).unwrap();
    (store, interp)
}

fn broadcast(store: MemBlobStore, interp: Interpretation, sessions: usize, budget: u64) -> usize {
    let mut db = MediaDb::with_store(store);
    db.register_interpretation(interp).unwrap();
    let mut server = Server::new(db, Capacity::new(100_000_000)).with_cache(if budget > 0 {
        SegmentCache::new(budget)
    } else {
        SegmentCache::disabled()
    });
    for n in 0..sessions {
        let at = TimePoint::ZERO + TimeDelta::from_millis(n as i64 * 40);
        if let Response::Opened {
            session: Some(id), ..
        } = server
            .request(
                at,
                Request::Open {
                    object: "video1".into(),
                },
            )
            .unwrap()
        {
            server.request(at, Request::Play { session: id }).unwrap();
        }
    }
    server.finish().elements_served
}

fn bench_broadcast(c: &mut Criterion) {
    let mut g = c.benchmark_group("broadcast");
    g.sample_size(10);
    for &sessions in &[4usize, 8] {
        g.bench_with_input(
            BenchmarkId::new("cache_on", sessions),
            &sessions,
            |b, &sessions| {
                b.iter(|| {
                    let (store, interp) = hot_object();
                    black_box(broadcast(store, interp, sessions, 32 << 20))
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("cache_off", sessions),
            &sessions,
            |b, &sessions| {
                b.iter(|| {
                    let (store, interp) = hot_object();
                    black_box(broadcast(store, interp, sessions, 0))
                })
            },
        );
    }
    g.finish();
}

/// A small sharded catalog: one scalable movie per name, captured into the
/// shard its name hashes to.
fn sharded_catalog(names: &[String], shards: usize, seed: u64) -> ShardedDb<MemBlobStore> {
    let mut stores: Vec<MemBlobStore> = (0..shards).map(|_| MemBlobStore::new()).collect();
    let frames = render_frames(VideoPattern::MovingBar, 0, 12, 48, 32);
    let mut interps = Vec::new();
    for name in names {
        let owner = shard_of(name, seed, shards);
        let (blob, interp) = capture_video_scalable(
            &mut stores[owner],
            &frames,
            TimeSystem::PAL,
            DctParams::default(),
        )
        .unwrap();
        let stream = interp.stream("video1").unwrap().clone();
        let mut renamed = Interpretation::new(blob);
        renamed.add_stream(name, stream).unwrap();
        interps.push(renamed);
    }
    let mut db = ShardedDb::with_stores(stores, seed);
    for interp in interps {
        db.register_interpretation(interp).unwrap();
    }
    db
}

/// The throughput shape of `exp_throughput`: stage every session at one
/// worker, then drain the whole backlog at `workers` — the wall-clock of
/// the drain is what the worker knob moves; the served elements are
/// byte-identical at any count.
fn staged_storm(names: &[String], shards: usize, sessions: usize, workers: usize) -> usize {
    let db = sharded_catalog(names, shards, 0x7EE0);
    let mut server = ShardedServer::new(db, Capacity::new(1 << 40));
    for i in 0..sessions {
        let object = names[i % names.len()].clone();
        if let Response::Opened {
            session: Some(id), ..
        } = server
            .request(TimePoint::ZERO, Request::Open { object })
            .unwrap()
        {
            server
                .request(TimePoint::ZERO, Request::Play { session: id })
                .unwrap();
        }
    }
    server.set_workers(workers);
    server.finish().global.elements_served
}

fn bench_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("throughput");
    g.sample_size(10);
    let shards = 4usize;
    let sessions = 96usize;
    let names: Vec<String> = (0..shards * 2).map(|i| format!("movie{i}")).collect();
    for &workers in &[1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::new("staged_storm", workers),
            &workers,
            |b, &workers| b.iter(|| black_box(staged_storm(&names, shards, sessions, workers))),
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_cache_paths,
    bench_checksum,
    bench_rational,
    bench_broadcast,
    bench_throughput
);
criterion_main!(benches);
