//! Load-generator arithmetic, kept apart from sockets so it can be unit
//! tested: the open-loop arrival schedule, the endpoint mix, and the
//! summary of raw latency samples.

use crate::stats;
use std::time::{Duration, Instant};

/// What a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Match,
    Encode,
    Search,
    Health,
    /// `/index/insert`, or `/index/delete` of an id inserted earlier.
    IndexWrite,
}

/// Endpoint shares of a traffic mix; must sum to 1.
pub type Mix = [(Kind, f64)];

pub const OPEN_MIX: &Mix = &[
    (Kind::Match, 0.70),
    (Kind::Encode, 0.15),
    (Kind::Search, 0.10),
    (Kind::Health, 0.05),
];

pub const KEEPALIVE_MIX: &Mix = &[
    (Kind::Match, 0.60),
    (Kind::Encode, 0.15),
    (Kind::Search, 0.10),
    (Kind::IndexWrite, 0.10),
    (Kind::Health, 0.05),
];

/// The kind a uniform `roll` in [0, 1) selects.
pub fn pick(mix: &Mix, roll: f64) -> Kind {
    let mut acc = 0.0;
    for &(kind, share) in mix {
        acc += share;
        if roll < acc {
            return kind;
        }
    }
    mix[mix.len() - 1].0
}

/// A fixed-rate arrival schedule: request `i` is due at
/// `t0 + i / rate`, whether or not earlier requests have been answered.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub t0: Instant,
    pub rate: f64,
    pub n: usize,
}

impl Schedule {
    pub fn new(t0: Instant, rate: f64, seconds: f64) -> Self {
        Schedule {
            t0,
            rate,
            n: (rate * seconds).round().max(1.0) as usize,
        }
    }

    pub fn due(&self, i: usize) -> Instant {
        self.t0 + Duration::from_secs_f64(i as f64 / self.rate)
    }

    /// Rate at which requests actually left, over the rate offered: the
    /// last request left `last_send_s` after `t0` and was due at
    /// `(n - 1) / rate`. Below 0.99 the generator, not the server, set
    /// the pace and the run is invalid.
    pub fn achieved_over_offered(&self, last_send_s: f64) -> f64 {
        let due_s = (self.n - 1) as f64 / self.rate;
        if last_send_s <= due_s || last_send_s == 0.0 {
            1.0
        } else {
            due_s / last_send_s
        }
    }
}

/// One finished (or failed) request as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub kind: Kind,
    /// Open loop: from the scheduled send time. Closed loop: from the
    /// moment the caller began the request.
    pub latency_s: f64,
    /// How long after its due time the request actually left.
    pub late_s: f64,
    /// 200 with a parseable JSON body.
    pub ok: bool,
}

/// Latency limit of the service-level objective.
pub const SLO_S: f64 = 0.005;

/// Ascending latencies in ms of the OK samples of `kind`.
pub fn latencies_ms(samples: &[Sample], kind: Kind) -> Vec<f64> {
    stats::sorted(
        &samples
            .iter()
            .filter(|s| s.ok && s.kind == kind)
            .map(|s| s.latency_s * 1e3)
            .collect::<Vec<_>>(),
    )
}

/// Share of all requests **sent** that were answered OK within the
/// limit; failures and refusals miss.
pub fn slo_share(samples: &[Sample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let met = samples
        .iter()
        .filter(|s| s.ok && s.latency_s <= SLO_S)
        .count();
    met as f64 / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_sum_to_one_and_pick_by_cumulative_share() {
        for mix in [OPEN_MIX, KEEPALIVE_MIX] {
            assert!((mix.iter().map(|m| m.1).sum::<f64>() - 1.0).abs() < 1e-12);
        }
        assert_eq!(pick(OPEN_MIX, 0.0), Kind::Match);
        assert_eq!(pick(OPEN_MIX, 0.699), Kind::Match);
        assert_eq!(pick(OPEN_MIX, 0.70), Kind::Encode);
        assert_eq!(pick(OPEN_MIX, 0.86), Kind::Search);
        assert_eq!(pick(OPEN_MIX, 0.999), Kind::Health);
        assert_eq!(pick(KEEPALIVE_MIX, 0.90), Kind::IndexWrite);
    }

    #[test]
    fn schedule_is_evenly_spaced_from_t0() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 1000.0, 2.0);
        assert_eq!(s.n, 2000);
        assert_eq!(s.due(0), t0);
        assert_eq!(s.due(1500) - t0, Duration::from_millis(1500));
        // Due times never depend on when earlier requests finished.
        assert_eq!(s.due(10) - s.due(9), Duration::from_millis(1));
    }

    #[test]
    fn a_lagging_generator_reads_below_one() {
        let s = Schedule::new(Instant::now(), 100.0, 1.0);
        assert_eq!(s.achieved_over_offered(0.99), 1.0);
        assert_eq!(s.achieved_over_offered(0.5), 1.0);
        assert!((s.achieved_over_offered(1.98) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn slo_counts_failures_and_slow_replies_as_misses() {
        let s = |latency_s, ok| Sample {
            kind: Kind::Match,
            latency_s,
            late_s: 0.0,
            ok,
        };
        let samples = [
            s(0.001, true),
            s(0.004, true),
            s(0.006, true),
            s(0.001, false),
        ];
        assert_eq!(slo_share(&samples), 0.5);
        assert_eq!(latencies_ms(&samples, Kind::Match).len(), 3);
        assert_eq!(slo_share(&[]), 0.0);
    }
}
