//! Deterministic open-loop request streams, generated lazily.
//!
//! Each served network draws inter-arrival times from its own seeded
//! substream, so adding a network to the workload never perturbs the
//! arrival times of the others, and the merged stream is a pure function
//! of `(networks, process, rate, seed, duration)` — the foundation of the
//! serving layer's byte-identical-at-any-thread-count contract.
//!
//! Nothing here is O(requests): a [`Process`] is one network's generator
//! (an RNG and a clock), and [`ArrivalStream`] merges them by
//! `(arrival, network index)` holding one pulled-ahead arrival per network.
//! The queueing engine consumes the stream as it replays;
//! [`generate_requests`] is the same stream collected.

use rand::{rngs::StdRng, Rng, SeedableRng};

use pimsim_event::SimTime;

use crate::config::{ArrivalProcess, ServeConfig};
use crate::ServeError;

/// One inference request in the open-loop stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Position in the merged stream (ids are dense and arrival-ordered).
    pub id: u64,
    /// Index into [`ServeConfig::networks`] of the requested network.
    pub net: usize,
    /// When the request arrives at the front-end.
    pub arrival: SimTime,
}

/// Hard cap on the steps a stream may take — one per request plus one per
/// bursty window visited — so an over-enthusiastic rate×duration product
/// (or a nanosecond square wave over seconds) fails fast instead of
/// replaying for minutes.
const MAX_REQUESTS: u64 = 4_000_000;

/// Charges one step to the stream's budget.
fn step(steps: &mut u64) -> Result<(), ServeError> {
    *steps += 1;
    if *steps > MAX_REQUESTS {
        return Err(ServeError::Config(format!(
            "workload exceeds {MAX_REQUESTS} requests; lower the rate or duration"
        )));
    }
    Ok(())
}

/// Mixes the run seed with a network index into an independent substream
/// seed (SplitMix64's golden-ratio increment keeps nearby indices far
/// apart in seed space).
fn substream_seed(seed: u64, net: usize) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(net as u64 + 1)
}

/// [`SimTime::from_ns_f64`] capped at "never": a rate so low that `1/rate`
/// overflows to infinity would otherwise clamp to *zero*.
fn gap(ns: f64) -> SimTime {
    SimTime::from_ns_f64(ns.min(u64::MAX as f64 / 1e3))
}

/// One exponential inter-arrival draw for a Poisson process at `rate`
/// events per second, as simulated time (inverse-CDF transform).
fn exponential(rng: &mut StdRng, rate: f64) -> SimTime {
    let u: f64 = rng.gen_range(0.0..1.0);
    gap(-(1.0 - u).ln() / rate * 1e9)
}

/// The arrival-time rule of one network's [`Process`].
enum Shape {
    /// I.i.d. exponential inter-arrival times.
    Poisson { rate: f64 },
    /// Arrival `k` at `(phase + k) * period`; the only randomness is the
    /// per-substream `phase` in `[0, 1)`, so that multiple networks don't
    /// all arrive on the same instant.
    Fixed { phase: f64, period_ns: f64, k: u64 },
    /// A deterministic square wave: `on` windows (the current one starts
    /// at `window`) carry Poisson traffic boosted so the long-run average
    /// still matches the rate; the rest of each `period` is silent.
    Bursty {
        boosted: f64,
        on: SimTime,
        period: SimTime,
        window: SimTime,
    },
}

/// One network's lazy arrival generator.
struct Process {
    rng: StdRng,
    shape: Shape,
    /// The clock Poisson and bursty draws add to: the previous arrival.
    t: SimTime,
}

impl Process {
    fn new(config: &ServeConfig, net: usize) -> Process {
        let rate = config.rate_rps / config.networks.len() as f64;
        let mut rng = StdRng::seed_from_u64(substream_seed(config.seed, net));
        let shape = match config.arrivals {
            ArrivalProcess::Poisson => Shape::Poisson { rate },
            ArrivalProcess::Fixed => Shape::Fixed {
                phase: rng.gen_range(0.0..1.0),
                period_ns: 1e9 / rate,
                k: 0,
            },
            ArrivalProcess::Bursty => {
                let period = config.burst_on.saturating_add(config.burst_off);
                Shape::Bursty {
                    boosted: rate * period.as_secs_f64() / config.burst_on.as_secs_f64(),
                    on: config.burst_on,
                    period,
                    window: SimTime::ZERO,
                }
            }
        };
        Process {
            rng,
            shape,
            t: SimTime::ZERO,
        }
    }

    /// The next arrival before `duration`, or `None` once the process is
    /// past it (it is not polled again after that). Windows visited are
    /// charged to `steps`.
    fn next(&mut self, duration: SimTime, steps: &mut u64) -> Result<Option<SimTime>, ServeError> {
        match &mut self.shape {
            Shape::Poisson { rate } => {
                self.t = self.t.saturating_add(exponential(&mut self.rng, *rate));
            }
            Shape::Fixed {
                phase,
                period_ns,
                k,
            } => {
                self.t = gap((*phase + *k as f64) * *period_ns);
                *k += 1;
            }
            Shape::Bursty {
                boosted,
                on,
                period,
                window,
            } => loop {
                if *window >= duration {
                    return Ok(None);
                }
                // The draw that crosses the window's end is spent, as it
                // always was: the next window starts from a fresh one.
                self.t = self.t.saturating_add(exponential(&mut self.rng, *boosted));
                if self.t < window.saturating_add(*on).min(duration) {
                    return Ok(Some(self.t));
                }
                step(steps)?;
                *window = window.saturating_add(*period);
                self.t = *window;
            },
        }
        Ok((self.t < duration).then_some(self.t))
    }
}

/// The merged request stream of `config`: every network's [`Process`],
/// ordered by `(arrival, network index)`, with dense arrival-ordered ids.
/// It yields an error once the workload exceeds the step budget.
pub(crate) struct ArrivalStream {
    procs: Vec<Process>,
    /// Each network's next arrival, pulled one ahead: the merge compares
    /// them, and the engine needs [`peek`](Self::peek) to be `None` already
    /// *while* it handles the last request.
    heads: Vec<Option<SimTime>>,
    duration: SimTime,
    next_id: u64,
    steps: u64,
}

impl ArrivalStream {
    pub(crate) fn new(config: &ServeConfig) -> Result<ArrivalStream, ServeError> {
        let nets = config.networks.len();
        let mut stream = ArrivalStream {
            procs: (0..nets).map(|net| Process::new(config, net)).collect(),
            heads: vec![None; nets],
            duration: config.duration,
            next_id: 0,
            steps: 0,
        };
        for net in 0..nets {
            stream.pull(net)?;
        }
        Ok(stream)
    }

    /// Refills `net`'s head from its process, charging the request.
    fn pull(&mut self, net: usize) -> Result<(), ServeError> {
        self.heads[net] = self.procs[net].next(self.duration, &mut self.steps)?;
        if self.heads[net].is_some() {
            step(&mut self.steps)?;
        }
        Ok(())
    }

    /// The next request's `(arrival, network index)`, without taking it.
    pub(crate) fn peek(&self) -> Option<(SimTime, usize)> {
        let heads = self.heads.iter().enumerate();
        heads.filter_map(|(net, head)| Some(((*head)?, net))).min()
    }
}

impl Iterator for ArrivalStream {
    type Item = Result<Request, ServeError>;

    fn next(&mut self) -> Option<Self::Item> {
        let (arrival, net) = self.peek()?;
        if let Err(e) = self.pull(net) {
            return Some(Err(e));
        }
        let id = self.next_id;
        self.next_id += 1;
        Some(Ok(Request { id, net, arrival }))
    }
}

/// Generates the full request stream for `config`, merged across networks
/// and ordered by `(arrival, network index)`, with dense arrival-ordered
/// ids.
///
/// # Errors
///
/// Returns [`ServeError::Config`] when the stream would exceed the
/// 4-million-step safety cap (requests plus bursty windows visited).
pub fn generate_requests(config: &ServeConfig) -> Result<Vec<Request>, ServeError> {
    ArrivalStream::new(config)?.collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(arrivals: ArrivalProcess) -> ServeConfig {
        let mut c = ServeConfig::new(vec![
            ("tiny_mlp".to_string(), 64),
            ("tiny_cnn".to_string(), 64),
        ]);
        c.arrivals = arrivals;
        c.rate_rps = 100_000.0;
        c.duration = SimTime::from_ms(2);
        c
    }

    #[test]
    fn streams_are_seed_deterministic() {
        for arrivals in ArrivalProcess::ALL {
            let c = config(arrivals);
            let a = generate_requests(&c).unwrap();
            let b = generate_requests(&c).unwrap();
            assert_eq!(a, b, "{arrivals} stream must reproduce for equal seeds");
            let mut other = c.clone();
            other.seed = c.seed + 1;
            if arrivals != ArrivalProcess::Fixed {
                assert_ne!(
                    generate_requests(&other).unwrap(),
                    a,
                    "{arrivals} stream should move with the seed"
                );
            }
        }
    }

    #[test]
    fn streams_are_ordered_with_dense_ids() {
        for arrivals in ArrivalProcess::ALL {
            let reqs = generate_requests(&config(arrivals)).unwrap();
            assert!(!reqs.is_empty());
            for (i, pair) in reqs.windows(2).enumerate() {
                assert!(
                    (pair[0].arrival, pair[0].net) <= (pair[1].arrival, pair[1].net),
                    "{arrivals}: out of order at {i}"
                );
            }
            for (i, r) in reqs.iter().enumerate() {
                assert_eq!(r.id, i as u64);
                assert!(r.arrival < SimTime::from_ms(2));
                assert!(r.net < 2);
            }
        }
    }

    #[test]
    fn rates_land_near_the_request_budget() {
        // 100k req/s over 2 ms ≈ 200 requests; Poisson and bursty wander,
        // fixed is exact up to the phase offset.
        for arrivals in ArrivalProcess::ALL {
            let n = generate_requests(&config(arrivals)).unwrap().len() as f64;
            assert!(
                (120.0..=280.0).contains(&n),
                "{arrivals}: got {n} requests, expected ≈200"
            );
        }
    }

    #[test]
    fn adding_a_network_preserves_other_substreams() {
        let one = {
            let mut c = config(ArrivalProcess::Poisson);
            c.networks.truncate(1);
            c.rate_rps = 50_000.0; // same 50k per-network share as the pair
            generate_requests(&c).unwrap()
        };
        let two = generate_requests(&config(ArrivalProcess::Poisson)).unwrap();
        let net0: Vec<SimTime> = two
            .iter()
            .filter(|r| r.net == 0)
            .map(|r| r.arrival)
            .collect();
        let solo: Vec<SimTime> = one.iter().map(|r| r.arrival).collect();
        assert_eq!(net0, solo);
    }

    #[test]
    fn runaway_workloads_are_rejected() {
        let mut c = config(ArrivalProcess::Fixed);
        c.rate_rps = 1e12;
        assert!(matches!(generate_requests(&c), Err(ServeError::Config(_))));
    }

    /// Regression: with one network each process used to stop quietly at
    /// the cap and the merged check was `>`, so these exited 0 reporting
    /// `generated 4000000`.
    #[test]
    fn runaway_single_network_workloads_are_rejected_too() {
        let mut c = config(ArrivalProcess::Poisson);
        c.networks.truncate(1);
        c.rate_rps = 1e300;
        let err = generate_requests(&c).unwrap_err();
        assert!(err.to_string().contains("workload exceeds"), "{err}");
        // Exactly at the cap is still a valid workload; one past is not.
        let mut c = config(ArrivalProcess::Fixed);
        c.networks.truncate(1);
        c.duration = SimTime::from_ms(40);
        c.rate_rps = 1e8;
        assert_eq!(generate_requests(&c).unwrap().len() as u64, MAX_REQUESTS);
        c.duration += SimTime::from_ns(10);
        assert!(generate_requests(&c).is_err());
    }

    /// Regression: empty bursty windows cost no request, so a nanosecond
    /// square wave over seconds spun for minutes; windows visited now
    /// count toward the step budget.
    #[test]
    fn empty_bursty_windows_count_toward_the_budget() {
        let mut c = config(ArrivalProcess::Bursty);
        c.burst_on = SimTime::from_ns(1);
        c.burst_off = SimTime::from_ns(1);
        c.duration = SimTime::from_ms(10_000);
        c.rate_rps = 1.0;
        let err = generate_requests(&c).unwrap_err();
        assert!(err.to_string().contains("workload exceeds"), "{err}");
    }

    /// A rate so low that `1/rate` overflows means "nothing arrives", for
    /// every process — not a burst of arrivals at time zero.
    #[test]
    fn vanishing_rates_generate_nothing() {
        for arrivals in ArrivalProcess::ALL {
            for rate in [1e-3, 1e-300] {
                let mut c = config(arrivals);
                c.rate_rps = rate;
                let n = generate_requests(&c).unwrap().len();
                assert!(n <= 2, "{arrivals} @ {rate}: {n} requests");
            }
        }
    }

    #[test]
    fn bursty_off_windows_are_silent() {
        let mut c = config(ArrivalProcess::Bursty);
        c.burst_on = SimTime::from_us(200);
        c.burst_off = SimTime::from_us(300);
        for r in generate_requests(&c).unwrap() {
            let phase = r.arrival.as_ps() % SimTime::from_us(500).as_ps();
            assert!(
                phase < SimTime::from_us(200).as_ps(),
                "arrival {} falls in an off window",
                r.arrival
            );
        }
    }
}
