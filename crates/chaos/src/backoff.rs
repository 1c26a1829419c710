//! Jitter-free deterministic exponential backoff.
//!
//! Real drivers add random jitter to avoid thundering herds; in a
//! deterministic simulation jitter would make recovery timing depend on an
//! extra RNG stream for no modeling benefit. The delay schedule here is a
//! pure function of the policy: `delay(k) = min(base * factor^k, max_delay)`
//! for attempt `k`, with a hard attempt budget.

use coyote_sim::SimDuration;

/// A retry policy: the budget and the delay curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Delay before the first retry.
    pub base: SimDuration,
    /// Multiplier per subsequent retry.
    pub factor: u32,
    /// Cap on any single delay.
    pub max_delay: SimDuration,
    /// Total attempts allowed (first try included). Must be >= 1.
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// The driver's default reconfiguration policy: up to 5 attempts,
    /// 1 ms -> 2 ms -> 4 ms -> 8 ms between them.
    pub fn reconfig_default() -> RetryPolicy {
        RetryPolicy {
            base: SimDuration::from_ms(1),
            factor: 2,
            max_delay: SimDuration::from_ms(100),
            max_attempts: 5,
        }
    }

    /// Start a backoff sequence under this policy.
    pub fn backoff(&self) -> Backoff {
        Backoff {
            policy: *self,
            attempt: 0,
        }
    }
}

/// An in-progress backoff sequence.
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    policy: RetryPolicy,
    attempt: u32,
}

impl Backoff {
    /// Retries consumed so far.
    pub fn retries(&self) -> u32 {
        self.attempt
    }
}

/// The delay schedule *is* an iterator: each item is the delay to wait
/// before the next retry, ending when the attempt budget is exhausted.
/// The first item is the delay after the first (failed) attempt.
impl Iterator for Backoff {
    type Item = SimDuration;

    fn next(&mut self) -> Option<SimDuration> {
        // attempt k failing leaves (max_attempts - 1 - k) retries.
        if self.attempt + 1 >= self.policy.max_attempts {
            return None;
        }
        let exp = self
            .policy
            .base
            .as_ps()
            .saturating_mul(u64::from(self.policy.factor).saturating_pow(self.attempt));
        self.attempt += 1;
        Some(SimDuration::from_ps(exp.min(self.policy.max_delay.as_ps())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_exponentially_and_cap() {
        let policy = RetryPolicy {
            base: SimDuration::from_ms(1),
            factor: 2,
            max_delay: SimDuration::from_ms(5),
            max_attempts: 6,
        };
        let mut b = policy.backoff();
        let delays: Vec<u64> = b.by_ref().map(|d| d.as_ps() / 1_000_000_000).collect();
        assert_eq!(delays, vec![1, 2, 4, 5, 5], "ms: 1,2,4 then capped at 5");
    }

    #[test]
    fn budget_bounds_retries() {
        let mut b = RetryPolicy::reconfig_default().backoff();
        let mut n = 0;
        while b.next().is_some() {
            n += 1;
        }
        assert_eq!(n, 4, "5 attempts = 4 retries");
        assert!(b.next().is_none(), "stays exhausted");
    }

    #[test]
    fn single_attempt_policy_never_retries() {
        let policy = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::reconfig_default()
        };
        assert!(policy.backoff().next().is_none());
    }

    #[test]
    fn sequence_is_deterministic() {
        let policy = RetryPolicy::reconfig_default();
        let run = || -> Vec<SimDuration> {
            let mut b = policy.backoff();
            b.by_ref().collect()
        };
        assert_eq!(run(), run(), "no jitter, ever");
    }
}
