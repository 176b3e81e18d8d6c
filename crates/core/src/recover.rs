//! Recovery policy: watchdog deadlines, bounded retry, backoff.
//!
//! The co-execution engine never waits unboundedly: every enqueued
//! operation (GPU wave, CPU subkernel, hd transfer) gets a watchdog
//! deadline derived from its *expected* duration, and every transient
//! transfer failure is retried a bounded number of times with exponential
//! backoff. The policy lives here so the coexec state machine reads like
//! the protocol and the tuning knobs read like configuration.

use fluidicl_des::SimDuration;

/// Watchdog deadline as a multiple of the operation's expected duration:
/// room for model error before a healthy operation is declared dead.
const WATCHDOG_FACTOR: f64 = 4.0;

/// Floor for watchdog deadlines, so near-zero estimated durations still get
/// a meaningful grace period.
const WATCHDOG_MIN: SimDuration = SimDuration::from_nanos(1_000);

/// Backoff before the first transfer retry; doubles on each further attempt.
const BACKOFF_BASE: SimDuration = SimDuration::from_nanos(2_000);

/// Retry choices for fault recovery. The watchdog deadline (4× the
/// expected duration, at least 1 µs) and the retry backoff (2 µs, doubling
/// per attempt) are fixed, and a lost owner always hands its kernel to a
/// surviving peer GPU when one exists.
///
/// # Examples
///
/// ```
/// use fluidicl::RecoveryPolicy;
/// use fluidicl_des::SimDuration;
///
/// let p = RecoveryPolicy::default();
/// let expected = SimDuration::from_nanos(500);
/// assert!(p.deadline(expected) >= expected, "deadlines trail the estimate");
/// assert!(p.backoff(2) > p.backoff(1), "backoff grows per attempt");
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryPolicy {
    /// Maximum retries for a transient transfer failure before it is
    /// reported as a [`fluidicl_vcl::ClError::Timeout`].
    pub max_transfer_retries: u32,
    /// Halve the next CPU chunk when a transfer retry occurs
    /// ([`crate::ChunkController::on_transfer_retry`]): smaller batches get
    /// acknowledged more often on a flaky link, so more CPU work is already
    /// mergeable if the watchdog later abandons it. On by default; only
    /// consulted when fault injection is active.
    pub shrink_chunk_on_retry: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_transfer_retries: 3,
            shrink_chunk_on_retry: true,
        }
    }
}

impl RecoveryPolicy {
    /// Sets the retry budget for transient transfer failures.
    pub fn with_max_transfer_retries(mut self, retries: u32) -> Self {
        self.max_transfer_retries = retries;
        self
    }

    /// Enables or disables the fault-aware chunk shrink on transfer
    /// retries.
    pub fn with_shrink_chunk_on_retry(mut self, enabled: bool) -> Self {
        self.shrink_chunk_on_retry = enabled;
        self
    }

    /// Watchdog deadline (a duration from the operation's start) for an
    /// operation expected to take `expected`.
    pub fn deadline(&self, expected: SimDuration) -> SimDuration {
        let scaled =
            SimDuration::from_nanos((expected.as_nanos() as f64 * WATCHDOG_FACTOR).ceil() as u64);
        scaled.max(WATCHDOG_MIN)
    }

    /// Backoff to wait before retry number `attempt` (1-based): exponential
    /// in the attempt count.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let factor = 1u64 << (attempt.saturating_sub(1)).min(16);
        SimDuration::from_nanos(BACKOFF_BASE.as_nanos().saturating_mul(factor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_scales_and_floors() {
        let p = RecoveryPolicy::default();
        assert_eq!(
            p.deadline(SimDuration::from_nanos(10_000)),
            SimDuration::from_nanos(40_000)
        );
        // Tiny estimates get the floor.
        assert_eq!(p.deadline(SimDuration::ZERO), WATCHDOG_MIN);
        assert_eq!(p.deadline(SimDuration::from_nanos(3)), WATCHDOG_MIN);
    }

    #[test]
    fn backoff_is_exponential() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.backoff(1), SimDuration::from_nanos(2_000));
        assert_eq!(p.backoff(2), SimDuration::from_nanos(4_000));
        assert_eq!(p.backoff(3), SimDuration::from_nanos(8_000));
    }

    #[test]
    fn builders_compose() {
        let p = RecoveryPolicy::default()
            .with_max_transfer_retries(0)
            .with_shrink_chunk_on_retry(false);
        assert_eq!(p.max_transfer_retries, 0);
        assert!(!p.shrink_chunk_on_retry);
        assert!(
            RecoveryPolicy::default().shrink_chunk_on_retry,
            "fault-aware shrink is the default"
        );
    }
}
