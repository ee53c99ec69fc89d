//! Order statistics, open-loop latency accounting and failure ratios.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// 1-based nearest rank of percentile `pct` (0 < pct <= 100) among `n`
/// samples: `ceil(pct · n / 100)`, in integers so that p99 of 1000 samples
/// is exactly rank 990.
fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).max(1)
}

/// Samples strictly beyond the nearest-rank `pct` percentile of `n`.
#[must_use]
pub fn tail_samples(n: usize, pct: u32) -> usize {
    n.saturating_sub(rank(n, pct))
}

/// Whether `n` samples support reporting percentile `pct`: at least
/// [`MIN_TAIL_SAMPLES`] must lie beyond it.
#[must_use]
pub fn supports(n: usize, pct: u32) -> bool {
    n > 0 && tail_samples(n, pct) >= MIN_TAIL_SAMPLES
}

/// Nearest-rank percentile of `values` (any order); `None` when empty.
#[must_use]
pub fn percentile(values: &[f64], pct: u32) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), pct) - 1])
}

/// Median (nearest-rank p50); `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50)
}

/// Failed operations as a share of attempted ones. Every operation that
/// was started counts in the base, including the ones that failed.
#[must_use]
pub fn failed_ratio(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    failed as f64 / attempted as f64
}

/// One open-loop request: when it was due, when the client actually sent
/// it and when its reply was complete, in ns since the schedule started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
}

impl Request {
    /// Latency timed from the due time, so a stall that delays later sends
    /// is charged to those requests too.
    #[must_use]
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator sent this request.
    #[must_use]
    pub fn lag_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// Lateness the client caused itself: for each request, the send time
/// beyond both its due time and the previous reply (a single synchronous
/// client cannot send before that reply; waiting for it is the server's
/// doing).
#[must_use]
pub fn client_own_lag_ns(requests: &[Request]) -> Vec<u64> {
    let mut prev_done = 0;
    requests
        .iter()
        .map(|r| {
            let ready = r.due_ns.max(prev_done);
            prev_done = r.done_ns;
            r.sent_ns.saturating_sub(ready)
        })
        .collect()
}

/// Whether the client rather than the server set the tail: its own
/// lateness at p99 reaches half the p99 latency.
#[must_use]
pub fn client_bound(requests: &[Request]) -> bool {
    let own: Vec<f64> = client_own_lag_ns(requests)
        .iter()
        .map(|&v| v as f64)
        .collect();
    let lat: Vec<f64> = requests.iter().map(|r| r.latency_ns() as f64).collect();
    match (percentile(&own, 99), percentile(&lat, 99)) {
        (Some(own), Some(lat)) => own >= 0.5 * lat,
        _ => false,
    }
}

/// 64-bit FNV-1a, for report digests.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 step: derives independent sub-seeds from the workload seed.
#[must_use]
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(tail_samples(1000, 99), 10);
        assert!(supports(1000, 99));
        assert_eq!(tail_samples(999, 99), 9);
        assert!(!supports(999, 99));
        assert!(supports(20, 50));
        assert!(!supports(19, 50));
        assert!(!supports(0, 50));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 99), Some(990.0));
        assert_eq!(percentile(&v, 50), Some(500.0));
        assert_eq!(percentile(&v, 100), Some(1000.0));
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // Due at 10 ms, sent late at 14 ms, done at 15 ms: 5 ms of latency,
        // 4 ms of which the request spent waiting to be sent.
        let r = Request {
            due_ns: 10_000_000,
            sent_ns: 14_000_000,
            done_ns: 15_000_000,
        };
        assert_eq!(r.latency_ns(), 5_000_000);
        assert_eq!(r.lag_ns(), 4_000_000);
    }

    #[test]
    fn waiting_on_the_server_is_not_client_lag() {
        // The first reply stalls until 30 ms; the second request was due at
        // 20 ms and went out at 30.5 ms: only 0.5 ms is the client's own.
        let reqs = [
            Request {
                due_ns: 10_000_000,
                sent_ns: 10_000_000,
                done_ns: 30_000_000,
            },
            Request {
                due_ns: 20_000_000,
                sent_ns: 30_500_000,
                done_ns: 31_000_000,
            },
        ];
        assert_eq!(client_own_lag_ns(&reqs), vec![0, 500_000]);
        assert_eq!(reqs[1].lag_ns(), 10_500_000);
        assert!(!client_bound(&reqs));
        let late_client = [Request {
            due_ns: 0,
            sent_ns: 9_000_000,
            done_ns: 10_000_000,
        }];
        assert!(client_bound(&late_client));
    }

    #[test]
    fn failed_ratio_counts_failures_in_the_base() {
        assert_eq!(failed_ratio(0, 0), 0.0);
        assert_eq!(failed_ratio(4, 1), 0.25);
        assert_eq!(failed_ratio(3, 3), 1.0);
    }

    #[test]
    fn derived_seeds_differ() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
