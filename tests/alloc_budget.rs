//! Allocation budgets of the serving path. The serving engine drops a
//! window's records in the call that closes it, so every heap block a
//! record holds is paid for there. Cloning a generated TPC-DS or TPC-H
//! record, and dropping the clone, may allocate once per non-empty `Vec`
//! field plus once per literal longer than the inline limit of `Ident`;
//! names never allocate. Assigning a query's template, which `submit` does
//! for every query, allocates nothing.
//!
//! This file is its own test binary because it installs a counting global
//! allocator. The allocator counts only on a thread that has switched
//! counting on, so tests running beside it on other threads do not disturb
//! the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use learnedwmp::plan::query::INLINE_CAP;
use learnedwmp::workloads::{QueryLog, QueryRecord};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counting touches only const-initialised thread locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn allocations_in(f: impl FnOnce()) -> usize {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

/// One per non-empty `Vec` field, one per literal past the inline limit.
fn budget(r: &QueryRecord) -> usize {
    let s = &r.spec;
    let vecs = [
        s.tables.is_empty(),
        s.joins.is_empty(),
        s.predicates.is_empty(),
        s.group_by.is_empty(),
        s.aggregates.is_empty(),
        s.order_by.is_empty(),
        r.features.is_empty(),
    ];
    let long_literals = s.predicates.iter().filter(|p| p.literal.len() > INLINE_CAP).count();
    vecs.iter().filter(|empty| !**empty).count() + long_literals
}

fn check_log(log: &QueryLog) {
    let mut total = 0;
    for r in log.records.iter().take(200) {
        let made = allocations_in(|| drop(std::hint::black_box(r.clone())));
        let allowed = budget(r);
        assert!(
            made <= allowed,
            "{} record {}: clone and drop made {made} allocations, budget {allowed}",
            log.benchmark,
            r.id
        );
        total += made;
    }
    assert!(total > 0, "the counting allocator saw no allocation");
}

#[test]
fn tpcds_records_clone_within_budget() {
    check_log(&learnedwmp::workloads::tpcds::generate(200, 5).expect("TPC-DS log"));
}

#[test]
fn tpch_records_clone_within_budget() {
    check_log(&learnedwmp::workloads::tpch::generate(200, 5).expect("TPC-H log"));
}

/// Template assignment runs once per served query, on the submitting
/// thread: on the paper's learner it must not touch the heap.
#[test]
fn plan_kmeans_assignment_does_not_allocate() {
    use learnedwmp::core::{LearnedWmp, ModelKind, TemplateSpec};
    let log = learnedwmp::workloads::tpcds::generate(400, 5).expect("TPC-DS log");
    let model = LearnedWmp::builder()
        .model(ModelKind::Ridge)
        .templates(TemplateSpec::PlanKMeans { k: 20, seed: 1 })
        .fit(&log)
        .expect("training");
    for r in log.records.iter().take(200) {
        let made = allocations_in(|| {
            std::hint::black_box(model.assign_template(std::hint::black_box(r)).expect("assign"));
        });
        assert_eq!(made, 0, "record {}: assignment made {made} allocations", r.id);
    }
}
