//! Criterion benchmark for the proving-service artifact cache: the cost of
//! a cold job (keygen + prove) versus a warm job (cached proving key), and
//! the cache lookup itself.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use zkml::OptimizerOptions;
use zkml_bench::random_inputs;
use zkml_model::{Activation, GraphBuilder, Op};
use zkml_pcs::Backend;
use zkml_service::{ArtifactCache, ArtifactKey};
use zkml_tensor::FixedPoint;

fn tiny_model() -> zkml_model::Graph {
    let mut b = GraphBuilder::new("bench-service-mlp", 11);
    let x = b.input(vec![1, 8], "x");
    let w1 = b.weight(vec![8, 8], "w1");
    let b1 = b.weight(vec![8], "b1");
    let h = b.op(
        Op::FullyConnected {
            activation: Some(Activation::Relu),
        },
        &[x, w1, b1],
        "fc1",
    );
    let w2 = b.weight(vec![8, 4], "w2");
    let b2 = b.weight(vec![4], "b2");
    let y = b.op(Op::FullyConnected { activation: None }, &[h, w2, b2], "fc2");
    b.finish(vec![y])
}

fn bench_cache(c: &mut Criterion) {
    let g = tiny_model();
    let backend = Backend::Kzg;
    let hw = zkml::cost::HardwareStats::cached();
    let opts = OptimizerOptions::new(backend, 15);
    let fp = FixedPoint::new(opts.numeric.scale_bits);
    let inputs = random_inputs(&g, 1, fp);
    let report = zkml::optimize(&g, &inputs, &opts, hw).unwrap();
    let compiled = report.synthesize_best().unwrap();
    let key = ArtifactKey::for_circuit(g.content_hash(), backend, &compiled);

    let mut group = c.benchmark_group("service_cache");
    group.sample_size(10);

    // Cold path: keygen on every request (what the CLI pays per run).
    let cold_cache = ArtifactCache::in_memory();
    let params = cold_cache.params(backend, compiled.k);
    group.bench_function("keygen_cold", |b| {
        b.iter(|| std::hint::black_box(compiled.keygen(&params).unwrap()))
    });

    // Warm path: the artifact-cache hit a second job for the same
    // (model, backend, k) takes.
    let warm_cache = ArtifactCache::in_memory();
    warm_cache.insert(key, compiled.keygen(&params).unwrap());
    let cache_hit = || {
        let hit = warm_cache.get_or_generate(
            key,
            |_| true,
            || -> Result<_, std::convert::Infallible> { unreachable!("the key is cached") },
        );
        hit.expect("infallible").0
    };
    group.bench_function("cache_hit", |b| {
        b.iter(|| std::hint::black_box(cache_hit()))
    });

    // Warm prove: the per-request work that remains once keys are cached.
    let pk = cache_hit();
    group.bench_function("prove_warm", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| std::hint::black_box(compiled.prove(&params, &pk, &mut rng).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
