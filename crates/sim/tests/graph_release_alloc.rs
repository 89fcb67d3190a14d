//! A graph-mode release allocates nothing: `Topology::propagate_into`
//! writes into caller-owned buffers, which the delay engine keeps across
//! releases, and the engine reserves the per-block surcharge rows up
//! front.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use seleth_chain::RewardSchedule;
use seleth_net::{Latency, Link, Propagation, Scratch, Topology};
use seleth_sim::delay::{DelayConfig, DelayReport, DelaySimulation};

/// The system allocator, counting the calls the current thread makes
/// while armed.
struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    if ARMED.with(Cell::get) {
        CALLS.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every call forwards to `System` unchanged; the counter touches
// only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocator calls `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    CALLS.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    CALLS.with(Cell::get)
}

#[test]
fn warm_propagate_into_allocates_nothing() {
    let mut b = Topology::builder();
    b.miners(12);
    b.seed(3);
    for i in 0..12 {
        for j in [(i + 1) % 12, (i + 5) % 12] {
            b.edge_spec(Link {
                from: i,
                to: j,
                latency: Latency::Uniform { lo: 1.0, hi: 4.0 },
                loss: 0.2,
                shortcut: false,
            });
        }
    }
    let dynamic = b.build().unwrap();
    let fixed = Topology::complete(12, 6.0).unwrap();
    assert!(!dynamic.is_static() && fixed.is_static());
    let (mut scratch, mut out) = (Scratch::default(), Propagation::default());
    for t in [&dynamic, &fixed] {
        t.propagate_into(0, 0, &mut scratch, &mut out);
    }
    let calls = allocations(|| {
        for block in 0..1_000u64 {
            for t in [&dynamic, &fixed] {
                t.propagate_into((block % 12) as usize, block, &mut scratch, &mut out);
            }
        }
    });
    assert_eq!(calls, 0);
    // The counter does see allocations.
    assert!(allocations(|| drop(dynamic.propagate(0, 0))) > 0);
}

/// One honest run of `blocks` blocks and the allocator calls it made.
fn counted_run(blocks: u64, topology: Option<Topology>) -> (DelayReport, u64) {
    let mut b = DelayConfig::builder();
    b.shares(vec![0.4, 0.3, 0.2, 0.1])
        .delay(6.0)
        .interval(13.0)
        .blocks(blocks)
        .seed(11)
        .schedule(RewardSchedule::ethereum());
    if let Some(t) = topology {
        b.topology(t);
    }
    let config = b.build().unwrap();
    let mut report = None;
    let calls = allocations(|| report = Some(DelaySimulation::new(config).run()));
    (report.unwrap(), calls)
}

/// A complete graph at the base delay replays the uniform engine event
/// for event, so the two runs differ in allocations only by setup and
/// per-view queue growth, never by a count that grows with releases.
#[test]
fn graph_releases_allocate_nothing() {
    const BLOCKS: u64 = 4_000;
    let (uniform, uniform_calls) = counted_run(BLOCKS, None);
    let complete = Topology::complete(4, 6.0).unwrap();
    let (graph, graph_calls) = counted_run(BLOCKS, Some(complete));
    assert_eq!(graph.counters.released_blocks, BLOCKS);
    assert_eq!(uniform.counters.released_blocks, BLOCKS);
    assert_eq!(graph.report.total_reward(), uniform.report.total_reward());
    // Two allocations per release (a fresh schedule) would add 8 000;
    // setup and the per-miner view queues' doubling add about ten.
    let extra = graph_calls.saturating_sub(uniform_calls);
    assert!(
        extra <= 32,
        "graph mode made {extra} more allocator calls than uniform ({graph_calls} vs {uniform_calls})"
    );
}
