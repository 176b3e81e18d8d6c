//! Exact host-work counters.
//!
//! Virtual makespans say how long the simulated machine took; these say
//! how much work the host did to compute them. Both are deterministic, so
//! a counter can be pinned exactly on any machine: a reintroduced copy, a
//! range executed twice, a fallback to the per-item body or a blow-up in
//! simulated events moves a count even when it moves no virtual time.

use std::ops::{Add, AddAssign};

/// Host work in exact counts.
///
/// Every [`Memory`](crate::Memory) keeps one for the work done in it
/// (executions, and copies that make a shared buffer private); a runtime
/// adds what it does outside an address space — merges, read-backs,
/// simulated events — and reports the total.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Work-groups run by the functional executor.
    pub groups_executed: u64,
    /// Kernel-body invocations: one per range for a group body, one per
    /// work-item for the per-item body.
    pub body_calls: u64,
    /// Bytes walked by the diff-merge ([`diff_merge`](crate::diff_merge)
    /// and [`diff_merge_ranged`](crate::diff_merge_ranged)).
    pub merged_bytes: u64,
    /// Bytes of buffer data the host copied: copy-on-write
    /// materialisation, overwrites, mirrors and read-backs.
    pub copied_bytes: u64,
    /// Events delivered by discrete-event simulations.
    pub des_events: u64,
}

impl AddAssign for WorkCounters {
    fn add_assign(&mut self, o: Self) {
        self.groups_executed += o.groups_executed;
        self.body_calls += o.body_calls;
        self.merged_bytes += o.merged_bytes;
        self.copied_bytes += o.copied_bytes;
        self.des_events += o.des_events;
    }
}

impl Add for WorkCounters {
    type Output = Self;

    fn add(mut self, o: Self) -> Self {
        self += o;
        self
    }
}
