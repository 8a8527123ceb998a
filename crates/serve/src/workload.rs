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
//! The queueing engine consumes the stream as it replays, through the
//! [`Arrivals`] trait: inline, or from a producer thread that runs the
//! stream ahead and hands its arrivals over in recycled buffers
//! ([`piped`]). [`generate_requests`] is the same stream collected.

use std::sync::mpsc::{self, Receiver, SyncSender};

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

/// Exponential draws a [`Draws`] makes at once.
const DRAWS: usize = 32;

/// A substream's exponential draws at one rate, made [`DRAWS`] at a time.
/// Each draw reads one number off the RNG, so the gaps are the ones a
/// draw per call would give, in the same order; made in a block, their
/// `ln`s do not wait on one another.
struct Draws {
    rng: StdRng,
    rate: f64,
    gaps: [SimTime; DRAWS],
    /// Gaps already handed out; [`DRAWS`] when the block is spent.
    used: usize,
}

impl Draws {
    fn new(rng: StdRng, rate: f64) -> Draws {
        Draws {
            rng,
            rate,
            gaps: [SimTime::ZERO; DRAWS],
            used: DRAWS,
        }
    }

    /// The next draw.
    fn next(&mut self) -> SimTime {
        if self.used == DRAWS {
            for gap in &mut self.gaps {
                *gap = exponential(&mut self.rng, self.rate);
            }
            self.used = 0;
        }
        self.used += 1;
        self.gaps[self.used - 1]
    }
}

/// The arrival-time rule of one network's [`Process`].
enum Shape {
    /// I.i.d. exponential inter-arrival times.
    Poisson { draws: Draws },
    /// Arrival `k` at `(phase + k) * period`; the only randomness is the
    /// per-substream `phase` in `[0, 1)`, so that multiple networks don't
    /// all arrive on the same instant.
    Fixed { phase: f64, period_ns: f64, k: u64 },
    /// A deterministic square wave: `on` windows (the current one starts
    /// at `window`) carry Poisson traffic boosted so the long-run average
    /// still matches the rate; the rest of each `period` is silent.
    Bursty {
        /// Draws at the boosted rate.
        draws: Draws,
        on: SimTime,
        period: SimTime,
        window: SimTime,
    },
}

/// One network's lazy arrival generator.
struct Process {
    shape: Shape,
    /// The clock Poisson and bursty draws add to: the previous arrival.
    t: SimTime,
}

impl Process {
    fn new(config: &ServeConfig, net: usize) -> Process {
        let rate = config.rate_rps / config.networks.len() as f64;
        let mut rng = StdRng::seed_from_u64(substream_seed(config.seed, net));
        let shape = match config.arrivals {
            ArrivalProcess::Poisson => Shape::Poisson {
                draws: Draws::new(rng, rate),
            },
            ArrivalProcess::Fixed => Shape::Fixed {
                phase: rng.gen_range(0.0..1.0),
                period_ns: 1e9 / rate,
                k: 0,
            },
            ArrivalProcess::Bursty => {
                let period = config.burst_on.saturating_add(config.burst_off);
                let boosted = rate * period.as_secs_f64() / config.burst_on.as_secs_f64();
                Shape::Bursty {
                    draws: Draws::new(rng, boosted),
                    on: config.burst_on,
                    period,
                    window: SimTime::ZERO,
                }
            }
        };
        Process {
            shape,
            t: SimTime::ZERO,
        }
    }

    /// The next arrival before `duration`, or `None` once the process is
    /// past it (it is not polled again after that). Windows visited are
    /// charged to `steps`.
    fn next(&mut self, duration: SimTime, steps: &mut u64) -> Result<Option<SimTime>, ServeError> {
        match &mut self.shape {
            Shape::Poisson { draws } => {
                self.t = self.t.saturating_add(draws.next());
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
                draws,
                on,
                period,
                window,
            } => loop {
                if *window >= duration {
                    return Ok(None);
                }
                // The draw that crosses the window's end is spent, as it
                // always was: the next window starts from a fresh one.
                self.t = self.t.saturating_add(draws.next());
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
/// ordered by `(arrival, network index)`. Taking a request fails once the
/// workload exceeds the step budget.
pub(crate) struct ArrivalStream {
    procs: Vec<Process>,
    /// Each network's next arrival, pulled one ahead: the merge compares
    /// them, and the engine needs [`Arrivals::peek`] to be `None` already
    /// *while* it handles the last request.
    heads: Vec<Option<SimTime>>,
    /// The smallest of `heads` by `(arrival, network index)`, kept so a
    /// peek reads one field instead of scanning every network.
    head: Option<(SimTime, usize)>,
    duration: SimTime,
    steps: u64,
}

impl ArrivalStream {
    pub(crate) fn new(config: &ServeConfig) -> Result<ArrivalStream, ServeError> {
        let nets = config.networks.len();
        let mut stream = ArrivalStream {
            procs: (0..nets).map(|net| Process::new(config, net)).collect(),
            heads: vec![None; nets],
            head: None,
            duration: config.duration,
            steps: 0,
        };
        for net in 0..nets {
            stream.pull(net)?;
        }
        Ok(stream)
    }

    /// Refills `net`'s head from its process, charging the request, and
    /// re-merges the heads.
    fn pull(&mut self, net: usize) -> Result<(), ServeError> {
        self.heads[net] = self.procs[net].next(self.duration, &mut self.steps)?;
        let charged = match self.heads[net] {
            Some(_) => step(&mut self.steps),
            None => Ok(()),
        };
        let heads = self.heads.iter().enumerate();
        self.head = heads.filter_map(|(net, head)| Some(((*head)?, net))).min();
        charged
    }
}

/// Where the replay reads arrivals from: the [`ArrivalStream`] itself, or
/// the [`Piped`] batches of a producer thread running one.
pub(crate) trait Arrivals {
    /// The next request's `(arrival, network index)`, without taking it;
    /// `None` once the stream has ended.
    fn peek(&self) -> Option<(SimTime, usize)>;

    /// Takes the peeked request.
    ///
    /// # Errors
    ///
    /// Returns the stream's step-budget error when pulling the request
    /// after this one exceeds it.
    fn take(&mut self) -> Result<(), ServeError>;
}

impl Arrivals for ArrivalStream {
    fn peek(&self) -> Option<(SimTime, usize)> {
        self.head
    }

    fn take(&mut self) -> Result<(), ServeError> {
        let Some((_, net)) = self.head else {
            return Ok(());
        };
        self.pull(net)
    }
}

/// Arrivals per handoff buffer: 2,048 entries are 32 KiB, under glibc's
/// 128 KiB mmap threshold, so the buffers come off the heap instead of
/// being mapped (and faulted in) afresh by every run.
const HANDOFF_LEN: usize = 2_048;

/// Buffers shared by the producer and the replay, allocated once per run.
const HANDOFF_BUFFERS: usize = 4;

/// A filled handoff buffer.
struct Handoff {
    arrivals: Vec<(SimTime, usize)>,
    /// Set on the last buffer: `Ok` when the stream ends after its last
    /// arrival, or the step-budget error that taking its last arrival
    /// raises. Every other buffer is full.
    end: Option<Result<(), ServeError>>,
}

/// The replay's end of a pipelined [`ArrivalStream`]: the same arrivals
/// and the same error at the same point, read from buffers a producer
/// thread fills ahead.
pub(crate) struct Piped {
    arrivals: Vec<(SimTime, usize)>,
    at: usize,
    end: Option<Result<(), ServeError>>,
    filled: Receiver<Handoff>,
    recycle: SyncSender<Vec<(SimTime, usize)>>,
}

impl Piped {
    /// Recycles the spent buffer and waits for the next one.
    fn refill(&mut self) {
        let mut spent = std::mem::take(&mut self.arrivals);
        spent.clear();
        // At most `HANDOFF_BUFFERS` buffers exist, so this never blocks;
        // it fails only once the producer is gone, which needs none.
        let _ = self.recycle.send(spent);
        self.receive();
    }

    /// Waits for the next filled buffer.
    fn receive(&mut self) {
        self.at = 0;
        // The producer's last buffer carries `end`, and none is waited
        // for after it; the channel closes before one only when the
        // producer panicked, which the scope re-raises on joining it.
        if let Ok(next) = self.filled.recv() {
            self.arrivals = next.arrivals;
            self.end = next.end;
        }
    }
}

impl Arrivals for Piped {
    fn peek(&self) -> Option<(SimTime, usize)> {
        self.arrivals.get(self.at).copied()
    }

    fn take(&mut self) -> Result<(), ServeError> {
        self.at += 1;
        if self.at < self.arrivals.len() {
            return Ok(());
        }
        match self.end.take() {
            Some(end) => end,
            None => {
                self.refill();
                Ok(())
            }
        }
    }
}

/// Runs `stream` on a producer thread and `replay` on this one, handing
/// arrivals over in batches of [`HANDOFF_LEN`]. The producer stops when
/// the stream ends or fails, or when `replay` returns early; it never
/// outlives this call.
pub(crate) fn piped<R>(mut stream: ArrivalStream, replay: impl FnOnce(&mut Piped) -> R) -> R {
    let (fill, filled) = mpsc::sync_channel::<Handoff>(HANDOFF_BUFFERS);
    let (recycle, empty) = mpsc::sync_channel(HANDOFF_BUFFERS);
    for _ in 0..HANDOFF_BUFFERS {
        // Cannot fail: the channel has room for every buffer and its
        // receiver is alive.
        let _ = recycle.send(Vec::with_capacity(HANDOFF_LEN));
    }
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(mut arrivals) = empty.recv() {
                let mut end = None;
                while arrivals.len() < HANDOFF_LEN {
                    let Some(head) = stream.peek() else { break };
                    arrivals.push(head);
                    if let Err(e) = stream.take() {
                        end = Some(Err(e));
                        break;
                    }
                }
                if end.is_none() && stream.peek().is_none() {
                    end = Some(Ok(()));
                }
                let last = end.is_some();
                // A closed channel means the replay has returned.
                if fill.send(Handoff { arrivals, end }).is_err() || last {
                    return;
                }
            }
        });
        let mut piped = Piped {
            arrivals: Vec::new(),
            at: 0,
            end: None,
            filled,
            recycle,
        };
        piped.receive();
        replay(&mut piped)
    })
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
    let mut stream = ArrivalStream::new(config)?;
    let mut requests = Vec::new();
    while let Some((arrival, net)) = stream.peek() {
        let id = requests.len() as u64;
        requests.push(Request { id, net, arrival });
        stream.take()?;
    }
    Ok(requests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use crate::service::ServiceModel;

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

    /// Every arrival `source` yields, and how taking the last one ended.
    fn drain(source: &mut impl Arrivals) -> (Vec<(SimTime, usize)>, Result<(), ServeError>) {
        let mut seen = Vec::new();
        while let Some(head) = source.peek() {
            seen.push(head);
            if let Err(e) = source.take() {
                return (seen, Err(e));
            }
        }
        (seen, Ok(()))
    }

    /// The stream inline and through the producer thread: the same
    /// arrivals, the same error after the same arrival, and the same
    /// replay outcome (or error).
    fn assert_piped_matches_inline(
        c: &ServeConfig,
        model: &ServiceModel,
    ) -> Result<(), ServeError> {
        let inline = drain(&mut ArrivalStream::new(c)?);
        let through = piped(ArrivalStream::new(c)?, drain);
        assert_eq!(through, inline);
        let inline = simulate(c, &mut ArrivalStream::new(c)?, &mut model.clone());
        let through = piped(ArrivalStream::new(c)?, |a| {
            simulate(c, a, &mut model.clone())
        });
        assert_eq!(through, inline);
        Ok(())
    }

    fn tiny_mlp() -> Result<(ServeConfig, ServiceModel), ServeError> {
        let mut c = config(ArrivalProcess::Poisson);
        c.networks.truncate(1);
        c.arch = pimsim_arch::ArchConfig::small_test();
        let model = ServiceModel::warm(&c, 1)?;
        Ok((c, model))
    }

    /// Streams that end exactly at, one short of and one past a buffer,
    /// and one that is empty.
    #[test]
    fn piped_streams_end_on_buffer_edges() -> Result<(), ServeError> {
        let (mut c, model) = tiny_mlp()?;
        c.arrivals = ArrivalProcess::Fixed;
        c.rate_rps = 1e6;
        for n in [
            0,
            1,
            HANDOFF_LEN - 1,
            HANDOFF_LEN,
            HANDOFF_LEN + 1,
            3 * HANDOFF_LEN,
        ] {
            c.duration = SimTime::from_us(n as u64).max(SimTime::from_ps(1));
            assert_eq!(generate_requests(&c)?.len(), n);
            assert_piped_matches_inline(&c, &model)?;
        }
        Ok(())
    }

    /// The step budget runs out mid-stream, after thousands of arrivals
    /// in a nanosecond square wave: the piped replay fails with the same
    /// error after the same arrival.
    #[test]
    fn piped_budget_error_surfaces_where_it_does_inline() -> Result<(), ServeError> {
        let (mut c, model) = tiny_mlp()?;
        c.arrivals = ArrivalProcess::Bursty;
        c.burst_on = SimTime::from_ns(1);
        c.burst_off = SimTime::from_ns(1);
        c.duration = SimTime::from_ms(10);
        c.rate_rps = 5e6;
        let (seen, end) = drain(&mut ArrivalStream::new(&c)?);
        assert!(seen.len() > 3 * HANDOFF_LEN, "{} arrivals", seen.len());
        assert!(end.unwrap_err().to_string().contains("workload exceeds"));
        assert_piped_matches_inline(&c, &model)
    }

    /// The replay fails first: a batch dispatched in the last window
    /// completes past the end of simulated time while the producer still
    /// has most of that window's 100k arrivals to hand over. The producer
    /// stops, `piped` joins it, and the error is the inline one.
    #[test]
    fn piped_replay_error_stops_the_producer() -> Result<(), ServeError> {
        let (mut c, model) = tiny_mlp()?;
        let on = SimTime::from_us(1);
        let period = SimTime::from_ps((u64::MAX - 1_001_000) / 2);
        assert!(model.get(0, 1).latency > SimTime::from_ps(1_001_000));
        c.arrivals = ArrivalProcess::Bursty;
        c.burst_on = on;
        c.burst_off = period - on;
        c.duration = SimTime::MAX;
        c.batch.timeout = SimTime::ZERO;
        // About 100k arrivals per on-window, one window per period.
        c.rate_rps = 1e11 * on.as_secs_f64() / period.as_secs_f64();
        c.validate()?;
        let stream = ArrivalStream::new(&c)?;
        let err = piped(stream, |a| simulate(&c, a, &mut model.clone())).unwrap_err();
        assert!(matches!(err, ServeError::Sim(_)), "{err}");
        let (seen, end) = drain(&mut ArrivalStream::new(&c)?);
        assert!(
            end.is_ok() && seen.len() > 250_000,
            "{} arrivals",
            seen.len()
        );
        assert_piped_matches_inline(&c, &model)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// On random configurations, some of them several buffers long,
        /// the piped replay is the inline one.
        #[test]
        fn piped_replay_matches_the_inline_replay(
            seed in 0u64..1_000_000,
            (arrivals_idx, nets, instances) in (0usize..3, 1usize..=2, 1u32..=3),
            (batch_max, timeout_us) in (1u32..=4, 0u64..60),
            (queue_cap, drain) in (0u64..80, proptest::prelude::any::<bool>()),
            (rate_exp, duration_us) in (4.0f64..6.5, 100u64..6_000),
        ) {
            let mut c = config(ArrivalProcess::ALL[arrivals_idx]);
            c.networks.truncate(nets);
            c.arch = pimsim_arch::ArchConfig::small_test();
            c.seed = seed;
            c.instances = instances;
            c.batch.max_size = batch_max;
            c.batch.timeout = SimTime::from_us(timeout_us);
            c.queue_cap = queue_cap;
            c.drain = drain;
            c.rate_rps = 10f64.powf(rate_exp);
            c.duration = SimTime::from_us(duration_us);
            c.burst_on = SimTime::from_us(100);
            c.burst_off = SimTime::from_us(50);
            let checked = models().as_ref().map_err(Clone::clone).and_then(|models| {
                assert_piped_matches_inline(&c, &models[nets - 1])
            });
            proptest::prop_assert_eq!(checked, Ok(()));
        }
    }

    /// Models of the first one and two networks of [`config`], every
    /// batch size the proptest forms warmed once.
    fn models() -> &'static Result<Vec<ServiceModel>, ServeError> {
        static MODELS: std::sync::OnceLock<Result<Vec<ServiceModel>, ServeError>> =
            std::sync::OnceLock::new();
        let warm = |nets: usize| {
            let mut c = config(ArrivalProcess::Poisson);
            c.networks.truncate(nets);
            c.arch = pimsim_arch::ArchConfig::small_test();
            c.batch.max_size = 4;
            let mut model = ServiceModel::warm(&c, 2)?;
            for net in 0..nets {
                for k in 2..=4 {
                    model.point(net, k)?;
                }
            }
            Ok(model)
        };
        MODELS.get_or_init(|| (1..=2).map(warm).collect())
    }
}
