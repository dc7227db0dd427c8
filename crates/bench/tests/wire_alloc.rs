//! The serving stack's request encode into a reused buffer allocates
//! nothing at steady state, while encoding into a fresh buffer allocates on
//! every exchange. A counting global allocator measures it directly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use pipeline::SplitPoint;
use storage::wire::encode_request_into;
use storage::{FetchRequest, Request};

thread_local! {
    /// Allocations made by this thread, so tests running beside this one
    /// add nothing to what it counts.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation on the calling thread.
struct CountingAlloc;

// SAFETY: every call forwards its arguments to `System` unchanged, so
// `System`'s guarantees hold. The counter is a const-initialised
// thread-local without a destructor, so touching it neither allocates nor
// re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const ROUNDS: u32 = 10_000;

/// Allocations the calling thread makes while running `body`.
fn allocations_during(body: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    body();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn reused_buffer_request_encode_makes_no_allocation() {
    let req = Request::Fetch(FetchRequest::new(7, 3, SplitPoint::new(2)));
    // What a caller without a buffer to reuse pays.
    let fresh = allocations_during(|| {
        for id in 0..ROUNDS {
            let mut out = Vec::new();
            encode_request_into(id, &req, &mut out);
            black_box(out);
        }
    });
    let mut buf = Vec::new();
    encode_request_into(0, &req, &mut buf); // warm-up sizes the buffer
    let reused = allocations_during(|| {
        for id in 0..ROUNDS {
            encode_request_into(id, &req, &mut buf);
            black_box(buf.len());
        }
    });
    assert!(fresh >= u64::from(ROUNDS), "{fresh} allocations over {ROUNDS} fresh-buffer encodes");
    assert_eq!(reused, 0, "the reused buffer allocated over {ROUNDS} encodes");
}
