//! Helpers shared by the integration tests.

use fluidicl::Fluidicl;

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
