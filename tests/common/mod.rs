//! Helpers shared by the integration tests.

// Each test binary compiles this module and uses only some of its helpers.
#![allow(dead_code)]

use fluidicl::{Fluidicl, FluidiclConfig, TraceKind};
use fluidicl_check::SWEEP_SEED;
use fluidicl_hetsim::MachineConfig;
use fluidicl_polybench::all_benchmarks;
use fluidicl_vcl::{ClResult, FaultKind, FaultPlan};

/// Plan seeds a seed scan tries before giving up.
pub const SCAN: u64 = 64;

/// The default config with protocol validation on, under a `kind` fault
/// plan seeded with `plan_seed`.
pub fn faulty(kind: FaultKind, plan_seed: u64) -> FluidiclConfig {
    FluidiclConfig::default()
        .with_validate_protocol(true)
        .with_faults(Some(FaultPlan::new(kind, plan_seed)))
}

/// Runs benchmark `name` at size `n` on `machine` under `config`, and
/// whether its output matches the sequential reference.
pub fn run(
    machine: &MachineConfig,
    name: &str,
    n: usize,
    config: FluidiclConfig,
) -> (Fluidicl, ClResult<bool>) {
    let b = all_benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .expect("benchmark");
    let mut rt = Fluidicl::new(machine.clone(), config, (b.program)(n));
    let res = b.run_and_validate_sized(&mut rt, n, SWEEP_SEED);
    (rt, res)
}

/// Whether any kernel's trace has an event matching `pred`.
pub fn has_event(rt: &Fluidicl, pred: impl Fn(&TraceKind) -> bool) -> bool {
    rt.reports()
        .iter()
        .any(|r| r.trace.iter().any(|e| pred(&e.kind)))
}

/// Scans plan seeds until a [`run`] under `config(seed)` matching `pred`
/// appears — fault triggers are seed-positioned, so a given scenario only
/// materialises on some seeds. Deterministic: the same seed always yields
/// the same run.
pub fn scan(
    machine: &MachineConfig,
    name: &str,
    n: usize,
    config: impl Fn(u64) -> FluidiclConfig,
    pred: impl Fn(&Fluidicl, &ClResult<bool>) -> bool,
) -> (Fluidicl, ClResult<bool>) {
    for ps in 0..SCAN {
        let (rt, res) = run(machine, name, n, config(ps));
        if pred(&rt, &res) {
            return (rt, res);
        }
    }
    panic!("no plan seed in 0..{SCAN} produced the scenario for {name}");
}

/// Asserts that every buffer's storage is held by the runtime's own CPU
/// and GPU address spaces alone — shared by both or private to each — so
/// no original snapshot or peer copy of an earlier launch still shares it.
pub fn assert_no_stray_holders(rt: &Fluidicl) {
    let (cpu, gpu) = rt.address_spaces();
    for id in cpu.ids() {
        assert!(gpu.contains(id), "buffer {id:?} missing on the GPU side");
        let live = if cpu.shares_with(gpu, id) { 2 } else { 1 };
        assert_eq!(
            (cpu.holders(id), gpu.holders(id)),
            (live, live),
            "buffer {id:?} is still shared with a dead snapshot or peer"
        );
    }
}
