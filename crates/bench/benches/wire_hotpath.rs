//! Wire hot-path micro-bench: per-exchange allocation churn.
//!
//! Compares encoding into a fresh buffer (one allocation per exchange)
//! against the reusable-buffer path the serving stack takes
//! (`encode_*_into`, zero steady-state allocations) and the in-place
//! framed decoder. A counting
//! global allocator measures allocations directly, so the "fewer
//! allocations" claim is printed as hard numbers before the timings run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pipeline::SplitPoint;
use storage::wire::{decode_request_framed, encode_request_into};
use storage::{FetchRequest, Request};

/// System allocator wrapped with an allocation counter.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations_during<R>(body: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = body();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

const ROUNDS: u32 = 10_000;

/// What a caller without a buffer to reuse pays.
fn encode_request_fresh(id: u32, req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    encode_request_into(id, req, &mut out);
    out
}

fn alloc_proof() {
    let req = Request::Fetch(FetchRequest::new(7, 3, SplitPoint::new(2)));
    let (fresh, _) = allocations_during(|| {
        for id in 0..ROUNDS {
            black_box(encode_request_fresh(id, &req));
        }
    });
    let mut buf = Vec::new();
    encode_request_into(0, &req, &mut buf); // warm-up sizes the buffer
    let (reused, _) = allocations_during(|| {
        for id in 0..ROUNDS {
            encode_request_into(id, &req, &mut buf);
            black_box(buf.len());
        }
    });
    println!("\nwire alloc churn over {ROUNDS} encodes:");
    println!("  encode_request_into  (fresh buffer):  {fresh} allocations");
    println!("  encode_request_into  (reused buffer): {reused} allocations");
    assert!(fresh >= u64::from(ROUNDS), "fresh path must allocate per exchange");
    assert_eq!(reused, 0, "reused path must be allocation-free at steady state");
}

fn hotpath(c: &mut Criterion) {
    alloc_proof();

    let req = Request::Fetch(FetchRequest::new(7, 3, SplitPoint::new(2)));
    let mut group = c.benchmark_group("wire_hotpath");
    group.bench_function("encode_fresh", |b| {
        let mut id = 0u32;
        b.iter(|| {
            id = id.wrapping_add(1);
            black_box(encode_request_fresh(id, &req))
        })
    });
    group.bench_function("encode_into_reused", |b| {
        let mut buf = Vec::new();
        let mut id = 0u32;
        b.iter(|| {
            id = id.wrapping_add(1);
            encode_request_into(id, &req, &mut buf);
            black_box(buf.len())
        })
    });
    let frame = encode_request_fresh(9, &req);
    group.bench_function("decode_framed_in_place", |b| {
        b.iter(|| black_box(decode_request_framed(black_box(&frame)).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, hotpath);
criterion_main!(benches);
