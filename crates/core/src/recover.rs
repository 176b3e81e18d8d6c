//! Recovery timing: watchdog deadlines, bounded retry, backoff.
//!
//! The co-execution engine never waits unboundedly: every enqueued
//! operation (GPU wave, CPU subkernel, hd transfer) gets a watchdog
//! deadline derived from its *expected* duration, and every transient
//! transfer failure is retried at most [`MAX_TRANSFER_RETRIES`] times with
//! exponential backoff. None of it is configurable: the rules live here so
//! the coexec state machine reads like the protocol.

use fluidicl_des::SimDuration;

/// Watchdog deadline as a multiple of the operation's expected duration:
/// room for model error before a healthy operation is declared dead.
const WATCHDOG_FACTOR: f64 = 4.0;

/// Floor for watchdog deadlines, so near-zero estimated durations still get
/// a meaningful grace period.
const WATCHDOG_MIN: SimDuration = SimDuration::from_nanos(1_000);

/// Backoff before the first transfer retry; doubles on each further attempt.
const BACKOFF_BASE: SimDuration = SimDuration::from_nanos(2_000);

/// Retries a failing transfer gets before it surfaces as a
/// [`fluidicl_vcl::ClError::Timeout`].
const MAX_TRANSFER_RETRIES: u32 = 3;

/// Watchdog deadline (a duration from the operation's start) for an
/// operation expected to take `expected`.
pub(crate) fn deadline(expected: SimDuration) -> SimDuration {
    let scaled =
        SimDuration::from_nanos((expected.as_nanos() as f64 * WATCHDOG_FACTOR).ceil() as u64);
    scaled.max(WATCHDOG_MIN)
}

/// Backoff to wait before retrying a transfer whose attempt number
/// `attempt` (1-based) just failed: exponential in the attempt count, or
/// `None` once the retry budget is spent.
pub(crate) fn backoff(attempt: u32) -> Option<SimDuration> {
    if attempt > MAX_TRANSFER_RETRIES {
        return None;
    }
    let factor = 1u64 << (attempt.saturating_sub(1)).min(16);
    Some(SimDuration::from_nanos(
        BACKOFF_BASE.as_nanos().saturating_mul(factor),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_scales_and_floors() {
        assert_eq!(
            deadline(SimDuration::from_nanos(10_000)),
            SimDuration::from_nanos(40_000)
        );
        // Tiny estimates get the floor.
        assert_eq!(deadline(SimDuration::ZERO), WATCHDOG_MIN);
        assert_eq!(deadline(SimDuration::from_nanos(3)), WATCHDOG_MIN);
    }

    #[test]
    fn backoff_is_exponential() {
        assert_eq!(backoff(1), Some(SimDuration::from_nanos(2_000)));
        assert_eq!(backoff(2), Some(SimDuration::from_nanos(4_000)));
        assert_eq!(backoff(3), Some(SimDuration::from_nanos(8_000)));
    }

    #[test]
    fn a_retry_past_the_budget_is_refused() {
        assert!(backoff(MAX_TRANSFER_RETRIES).is_some());
        assert_eq!(backoff(MAX_TRANSFER_RETRIES + 1), None);
        assert_eq!(backoff(u32::MAX), None);
    }
}
