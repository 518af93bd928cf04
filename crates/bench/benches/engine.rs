//! Criterion micro-benchmarks of the simulation substrate: the random
//! streams, the fading channel and the CSI estimator.
//! These bound the per-frame cost of the platform itself, independent of any
//! MAC protocol.

use charisma::des::{RngStreams, Sampler, SimDuration, SimTime, StreamId};
use charisma::phy::{AdaptivePhy, Phy};
use charisma::radio::{ChannelConfig, CombinedChannel, Mobility};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_rng_streams(c: &mut Criterion) {
    let streams = RngStreams::new(42);
    c.bench_function("rng_derive_1k_streams", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1_000u32 {
                acc ^= streams.derive_seed(StreamId::new(StreamId::DOMAIN_CHANNEL, i));
            }
            black_box(acc)
        })
    });
    c.bench_function("sampler_exponential_100k", |b| {
        let mut rng = streams.stream(StreamId::new(StreamId::DOMAIN_VOICE, 0));
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..100_000 {
                acc += Sampler::exponential(&mut rng, 1.0);
            }
            black_box(acc)
        })
    });
}

fn bench_channel(c: &mut Criterion) {
    let streams = RngStreams::new(7);
    c.bench_function("channel_advance_one_second_of_frames", |b| {
        b.iter(|| {
            let mut ch = CombinedChannel::new(
                ChannelConfig::default(),
                Mobility::new(50.0),
                streams.stream(StreamId::new(StreamId::DOMAIN_CHANNEL, 1)),
            );
            let mut t = SimTime::ZERO;
            let mut acc = 0.0;
            for _ in 0..400 {
                t += SimDuration::from_micros(2_500);
                acc += ch.snr_db_at(t);
            }
            black_box(acc)
        })
    });
}

fn bench_phy(c: &mut Criterion) {
    let phy = AdaptivePhy::default();
    c.bench_function("abicm_mode_selection_100k", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            let mut snr = -20.0;
            for _ in 0..100_000 {
                snr += 0.001;
                acc += phy.packets_per_slot(black_box(snr));
            }
            black_box(acc)
        })
    });
}

criterion_group!(engine, bench_rng_streams, bench_channel, bench_phy);
criterion_main!(engine);
