//! Counting-allocator pin of the fleet router's per-batch cost.
//!
//! Once the workers run, the pushing thread allocates only the empty
//! batch each send leaves behind, already at full capacity: at most one
//! allocation per batch sent, never one per push or a regrowing buffer.
//! The counter is a `#[global_allocator]` that counts on the pushing
//! thread only (a thread-local flag), so the worker threads' sessions do
//! not show; its own integration-test binary keeps every other test out
//! of it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use endurance_core::{FleetReducer, MonitorConfig, WindowStrategy};
use trace_model::{EventTypeId, StreamId, Timestamp, TraceEvent};

/// Counts every allocation and reallocation made while the calling
/// thread has `COUNTING` set.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s contract is the one callers get; counting touches only an
// atomic and a thread-local `Cell<bool>`, which allocate nothing.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn event(i: u64) -> TraceEvent {
    TraceEvent::new(
        Timestamp::from_micros(i * 100),
        EventTypeId::new((i % 2) as u16),
        0,
    )
}

#[test]
fn the_router_allocates_at_most_once_per_batch_sent() {
    const PUSHES: u64 = 100_000;
    const BATCH: usize = 4_096;
    const WORKERS: usize = 2;
    const STREAMS: u64 = 8;
    let config = MonitorConfig::builder()
        .dimensions(2)
        .window(WindowStrategy::Count(64))
        .reference_duration(Duration::from_millis(200))
        .build()
        .unwrap();
    let mut fleet = FleetReducer::new(config, WORKERS)
        .unwrap()
        .with_batch_size(BATCH);
    // The first push spawns the workers and their first batches.
    fleet.push(StreamId::new(0), event(0)).unwrap();

    COUNTING.with(|counting| counting.set(true));
    for i in 1..=PUSHES {
        let stream = StreamId::new((i % STREAMS) as u32);
        fleet.push(stream, event(i / STREAMS)).unwrap();
    }
    COUNTING.with(|counting| counting.set(false));
    let allocations = ALLOCATIONS.load(Ordering::SeqCst);

    // One per batch the pushes can fill, plus two for what a blocking
    // send on a full channel sets up once per thread.
    let most = PUSHES.div_ceil(BATCH as u64) + 2;
    assert!(
        allocations <= most,
        "{allocations} allocations over {PUSHES} pushes, at most {most}"
    );
    let outcome = fleet.finish().unwrap();
    assert_eq!(outcome.events_routed, PUSHES + 1);
    assert_eq!(outcome.failed_streams, 0);
}
