//! Seeded, deterministic fault injection.
//!
//! FluidiCL's in-order data-before-status protocol makes mid-kernel recovery
//! possible: the status watermark proves exactly which work-groups have
//! durable results on which device. This module supplies the *faults* that
//! recovery machinery is tested against — device loss, queue stalls,
//! transient transfer failures and corrupted messages — derived entirely
//! from a seed, so the same [`FaultPlan`] always produces the same fault at
//! the same operation index and every failure is replayable bit-for-bit.
//!
//! The injector is a passive oracle: the runtimes *ask* it what happens to
//! each operation ([`FaultInjector::kill_gpu_wave`],
//! [`FaultInjector::transfer_fate`], …) and implement the consequences
//! themselves. Payload integrity is checked with [`payload_checksum`], a
//! FNV-1a hash over the transferred bit patterns.

use fluidicl_des::SplitMix64;

use crate::DeviceKind;

/// The fault classes the injector can produce, one per plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The primary GPU dies mid-kernel: a launched wave never completes.
    /// A peer GPU that owns a kernel is another device, which this fault
    /// does not strike.
    GpuLost,
    /// A subkernel's device dies mid-kernel: a launched subkernel never
    /// completes. That is the CPU on a two-device machine; with peer GPUs
    /// it is whichever endpoint's launch hits the trigger.
    CpuLost,
    /// An enqueued host-to-device transfer never completes (queue stall).
    TransferStall,
    /// A transfer fails transiently and succeeds when retried.
    TransferTransient,
    /// A transfer's payload is delivered with flipped bits.
    CorruptPayload,
    /// A transfer's status message is delivered corrupted.
    CorruptStatus,
    /// Both devices die (unrecoverable): GPU and CPU kill points both fire,
    /// and a subkernel loss takes every subkernel endpoint with it — a
    /// peer GPU promoted to owner included, whose waves then die too.
    DoubleLoss,
}

impl FaultKind {
    /// Every fault kind, in sweep order.
    pub fn all() -> [FaultKind; 7] {
        [
            FaultKind::GpuLost,
            FaultKind::CpuLost,
            FaultKind::TransferStall,
            FaultKind::TransferTransient,
            FaultKind::CorruptPayload,
            FaultKind::CorruptStatus,
            FaultKind::DoubleLoss,
        ]
    }

    /// Stable lowercase name (used in sweep reports and JSON summaries).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::GpuLost => "gpu-lost",
            FaultKind::CpuLost => "cpu-lost",
            FaultKind::TransferStall => "transfer-stall",
            FaultKind::TransferTransient => "transfer-transient",
            FaultKind::CorruptPayload => "corrupt-payload",
            FaultKind::CorruptStatus => "corrupt-status",
            FaultKind::DoubleLoss => "double-loss",
        }
    }
}

/// A seeded fault scenario: one fault kind plus the seed that fixes *where*
/// it strikes. Equal plans reproduce identical fault schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// What goes wrong.
    pub kind: FaultKind,
    /// Seed fixing the operation index (and corruption site) of the fault.
    pub seed: u64,
}

impl FaultPlan {
    /// Creates a plan.
    pub fn new(kind: FaultKind, seed: u64) -> Self {
        FaultPlan { kind, seed }
    }
}

/// What the injector decides for one host↔device transfer attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferFate {
    /// The transfer completes normally.
    Deliver,
    /// The transfer never completes; only a watchdog deadline detects it.
    Stall,
    /// The transfer fails and is worth retrying after a backoff.
    TransientFail,
    /// Delivered, but the payload has flipped bits (checksum mismatch).
    CorruptPayload,
    /// Delivered, but the status message is corrupt (checksum mismatch).
    CorruptStatus,
}

/// Deterministic fault oracle for one run.
///
/// The injector counts the operations it is consulted about (GPU waves, CPU
/// subkernels, first-attempt transfers) and fires its fault when the counter
/// for the plan's kind reaches a seed-derived trigger index. Device-loss
/// verdicts are sticky: once a device is declared dead every later operation
/// on it fails too, exactly like real hardware, while the devices that were
/// not struck keep working.
///
/// # Examples
///
/// ```
/// use fluidicl_vcl::{FaultInjector, FaultKind, FaultPlan, TransferFate};
///
/// let mut a = FaultInjector::new(FaultPlan::new(FaultKind::TransferStall, 7));
/// let mut b = FaultInjector::new(FaultPlan::new(FaultKind::TransferStall, 7));
/// let fates: Vec<TransferFate> = (0..4).map(|_| a.transfer_fate(1)).collect();
/// assert_eq!(fates, (0..4).map(|_| b.transfer_fate(1)).collect::<Vec<_>>());
/// assert!(fates.contains(&TransferFate::Stall));
/// ```
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Operation index (within the kind's own counter) at which the fault
    /// fires.
    trigger: u64,
    /// How many consecutive attempts of the triggered transfer fail before a
    /// retry succeeds (transient faults only).
    transient_failures: u32,
    /// Seed material for picking the corruption site and bit flip.
    corrupt_salt: u64,
    gpu_ops: u64,
    subkernel_ops: u64,
    transfer_ops: u64,
    gpu_dead: bool,
    /// Endpoint (0 is the CPU) whose subkernel launch hit the trigger.
    subkernel_dead: Option<u32>,
    fired: bool,
}

impl FaultInjector {
    /// Derives the full fault schedule from the plan's seed.
    pub fn new(plan: FaultPlan) -> Self {
        let mut rng = SplitMix64::new(plan.seed ^ 0xFA17_5EED_0000_0001);
        let trigger = rng.range_u64(0, 3);
        let transient_failures = 1 + rng.range_u64(0, 2) as u32;
        let corrupt_salt = rng.next_u64();
        FaultInjector {
            plan,
            trigger,
            transient_failures,
            corrupt_salt,
            gpu_ops: 0,
            subkernel_ops: 0,
            transfer_ops: 0,
            gpu_dead: false,
            subkernel_dead: None,
            fired: false,
        }
    }

    /// The plan this injector was built from.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Whether the planned fault has fired yet.
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// Whether `device` has been declared dead by an earlier verdict.
    pub fn device_lost(&self, device: DeviceKind) -> bool {
        match device {
            DeviceKind::Gpu => self.gpu_dead,
            DeviceKind::Cpu => self.endpoint_lost(0),
        }
    }

    /// Whether subkernel endpoint `dev` (0 is the CPU, higher indices are
    /// peer GPUs) has been declared dead by an earlier verdict: the
    /// endpoint the subkernel trigger struck, or under a double loss every
    /// endpoint. A read-only query: it advances no counter.
    pub fn endpoint_lost(&self, dev: u32) -> bool {
        self.subkernel_dead
            .is_some_and(|d| d == dev || self.plan.kind == FaultKind::DoubleLoss)
    }

    /// Consulted once per wave launched on the primary GPU: `true` means
    /// the wave (and the GPU with it) dies — it will never report
    /// completion.
    pub fn kill_gpu_wave(&mut self) -> bool {
        if !matches!(self.plan.kind, FaultKind::GpuLost | FaultKind::DoubleLoss) {
            return false;
        }
        if self.gpu_dead {
            return true;
        }
        let op = self.gpu_ops;
        self.gpu_ops += 1;
        if op == self.trigger {
            self.gpu_dead = true;
            self.fired = true;
        }
        self.gpu_dead
    }

    /// Consulted once per subkernel launched on endpoint `dev` (0 is the
    /// CPU, higher indices are peer GPUs): `true` means the subkernel (and
    /// its device with it) dies — it will never report completion. The
    /// launch that hits the trigger kills its own device only; under a
    /// double loss every later subkernel dies, whichever device runs it.
    pub fn kill_subkernel(&mut self, dev: u32) -> bool {
        if !matches!(self.plan.kind, FaultKind::CpuLost | FaultKind::DoubleLoss) {
            return false;
        }
        if self.subkernel_dead.is_some() {
            return self.endpoint_lost(dev);
        }
        let op = self.subkernel_ops;
        self.subkernel_ops += 1;
        if op == self.trigger {
            self.subkernel_dead = Some(dev);
            self.fired = true;
        }
        self.subkernel_dead.is_some()
    }

    /// Consulted once per transfer attempt. `attempt` is 1-based: attempt 1
    /// advances the first-attempt counter (and may trigger the fault);
    /// attempts > 1 are retries/resends of the *triggered* transfer — a
    /// transient fault keeps failing until `attempt` exceeds its seed-derived
    /// failure count, while corrupt messages always deliver cleanly when
    /// resent.
    pub fn transfer_fate(&mut self, attempt: u32) -> TransferFate {
        if !matches!(
            self.plan.kind,
            FaultKind::TransferStall
                | FaultKind::TransferTransient
                | FaultKind::CorruptPayload
                | FaultKind::CorruptStatus
        ) {
            return TransferFate::Deliver;
        }
        if attempt > 1 {
            if self.plan.kind == FaultKind::TransferTransient && attempt <= self.transient_failures
            {
                return TransferFate::TransientFail;
            }
            return TransferFate::Deliver;
        }
        let op = self.transfer_ops;
        self.transfer_ops += 1;
        if op != self.trigger {
            return TransferFate::Deliver;
        }
        self.fired = true;
        match self.plan.kind {
            FaultKind::TransferStall => TransferFate::Stall,
            FaultKind::TransferTransient => TransferFate::TransientFail,
            FaultKind::CorruptPayload => TransferFate::CorruptPayload,
            FaultKind::CorruptStatus => TransferFate::CorruptStatus,
            _ => TransferFate::Deliver,
        }
    }

    /// Element index the corruption hits in a payload of `len` elements.
    pub fn corrupt_index(&self, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        (self.corrupt_salt as usize) % len
    }

    /// Nonzero bit mask XORed into the corrupted element's bit pattern.
    pub fn flip_mask(&self) -> u32 {
        1u32 << ((self.corrupt_salt >> 32) % 32)
    }
}

/// FNV-1a 64 checksum over the bit patterns of a payload — the per-transfer
/// integrity check that detects corrupted messages.
pub fn payload_checksum(data: &[f32]) -> u64 {
    fnv1a(data.iter().map(|v| v.to_bits()))
}

/// [`payload_checksum`] of `data` with element `index` replaced by `value`:
/// what a receiver computes over a payload corrupted in one word, without
/// copying the payload to corrupt it.
///
/// # Panics
///
/// Panics if `index` is out of bounds.
pub fn payload_checksum_with(data: &[f32], index: usize, value: f32) -> u64 {
    assert!(index < data.len(), "substituted index out of bounds");
    fnv1a(
        data.iter()
            .enumerate()
            .map(|(i, v)| if i == index { value } else { *v }.to_bits()),
    )
}

fn fnv1a(words: impl Iterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_reproduces_the_same_schedule() {
        for kind in FaultKind::all() {
            let mut a = FaultInjector::new(FaultPlan::new(kind, 99));
            let mut b = FaultInjector::new(FaultPlan::new(kind, 99));
            for _ in 0..6 {
                assert_eq!(a.kill_gpu_wave(), b.kill_gpu_wave());
                assert_eq!(a.kill_subkernel(0), b.kill_subkernel(0));
                assert_eq!(a.transfer_fate(1), b.transfer_fate(1));
            }
            assert_eq!(a.fired(), b.fired());
        }
    }

    #[test]
    fn gpu_loss_is_sticky_and_fires_within_the_trigger_window() {
        let mut inj = FaultInjector::new(FaultPlan::new(FaultKind::GpuLost, 3));
        let verdicts: Vec<bool> = (0..6).map(|_| inj.kill_gpu_wave()).collect();
        let first = verdicts
            .iter()
            .position(|&v| v)
            .expect("fault fires within 3 waves");
        assert!(first < 3);
        assert!(verdicts[first..].iter().all(|&v| v), "loss is permanent");
        assert!(inj.device_lost(DeviceKind::Gpu));
        assert!(!inj.device_lost(DeviceKind::Cpu));
        // A GPU-loss plan never touches CPU subkernels or transfers.
        assert!(!inj.kill_subkernel(0));
        assert_eq!(inj.transfer_fate(1), TransferFate::Deliver);
    }

    #[test]
    fn double_loss_kills_both_devices() {
        let mut inj = FaultInjector::new(FaultPlan::new(FaultKind::DoubleLoss, 17));
        for _ in 0..4 {
            inj.kill_gpu_wave();
            inj.kill_subkernel(0);
        }
        assert!(inj.device_lost(DeviceKind::Gpu));
        assert!(inj.device_lost(DeviceKind::Cpu));
    }

    #[test]
    fn subkernel_loss_kills_only_the_struck_device() {
        for (kind, survivors_die) in [(FaultKind::CpuLost, false), (FaultKind::DoubleLoss, true)] {
            let mut inj = FaultInjector::new(FaultPlan::new(kind, 3));
            // Peer endpoint 2 launches until the trigger strikes it.
            while !inj.kill_subkernel(2) {}
            assert!(inj.kill_subkernel(2), "loss is permanent");
            assert_eq!(inj.kill_subkernel(0), survivors_die);
            assert_eq!(inj.kill_subkernel(1), survivors_die);
            assert_eq!(inj.device_lost(DeviceKind::Cpu), survivors_die);
        }
    }

    #[test]
    fn transient_fault_recovers_within_bounded_retries() {
        let mut inj = FaultInjector::new(FaultPlan::new(FaultKind::TransferTransient, 5));
        // Drive first attempts until the fault fires.
        let mut fate = TransferFate::Deliver;
        for _ in 0..4 {
            fate = inj.transfer_fate(1);
            if fate != TransferFate::Deliver {
                break;
            }
        }
        assert_eq!(fate, TransferFate::TransientFail);
        // Retries: fails at most once more (failure count is 1..=2), then
        // delivers.
        let mut attempt = 2;
        while inj.transfer_fate(attempt) == TransferFate::TransientFail {
            attempt += 1;
            assert!(attempt <= 3, "transient fault must clear by attempt 3");
        }
        assert_eq!(inj.transfer_fate(attempt), TransferFate::Deliver);
    }

    #[test]
    fn corrupt_payload_delivers_cleanly_on_resend() {
        let mut inj = FaultInjector::new(FaultPlan::new(FaultKind::CorruptPayload, 11));
        let mut fate = TransferFate::Deliver;
        for _ in 0..4 {
            fate = inj.transfer_fate(1);
            if fate != TransferFate::Deliver {
                break;
            }
        }
        assert_eq!(fate, TransferFate::CorruptPayload);
        assert_eq!(inj.transfer_fate(2), TransferFate::Deliver);
    }

    #[test]
    fn checksum_detects_a_single_bit_flip() {
        let inj = FaultInjector::new(FaultPlan::new(FaultKind::CorruptPayload, 23));
        let payload: Vec<f32> = (0..64).map(|i| i as f32 * 0.5).collect();
        let clean = payload_checksum(&payload);
        let mut corrupted = payload.clone();
        let i = inj.corrupt_index(corrupted.len());
        corrupted[i] = f32::from_bits(corrupted[i].to_bits() ^ inj.flip_mask());
        assert_ne!(clean, payload_checksum(&corrupted));
        assert_eq!(clean, payload_checksum(&payload), "checksum is pure");
        // The copy-free form agrees with checksumming the corrupted copy.
        assert_eq!(
            payload_checksum_with(&payload, i, corrupted[i]),
            payload_checksum(&corrupted)
        );
        assert_eq!(payload_checksum_with(&payload, i, payload[i]), clean);
    }

    #[test]
    fn corruption_site_is_in_bounds_and_mask_nonzero() {
        for seed in 0..32 {
            let inj = FaultInjector::new(FaultPlan::new(FaultKind::CorruptStatus, seed));
            assert!(inj.corrupt_index(7) < 7);
            assert_eq!(inj.corrupt_index(0), 0, "empty payloads degrade to 0");
            assert_ne!(inj.flip_mask(), 0);
        }
    }
}
