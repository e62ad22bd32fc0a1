//! `serve-open`: open-loop Poisson load against `PredictionService`.
//!
//! One sender thread submits on a seeded Poisson schedule whatever the
//! service does; one collector thread waits for the answers in submission
//! order.  Every latency runs from the request's *scheduled* send time, so a
//! stall also charges the requests queued behind it, and the sender's
//! lateness against the schedule is reported: a rung the sender could not
//! hold is invalid.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use pfp_core::{Dataset, DmcpModel, TrainConfig};
use pfp_ehr::CohortConfig;
use pfp_math::rng::{derive_seed, seeded_rng};
use pfp_math::{CsrMatrix, SparseVec};
use pfp_serve::{PendingPrediction, PredictionService, ServeConfig, ServeError};
use rand::Rng;

use crate::common::{generate, replay, same_bits, setup, since, with_peak, THREADS};
use crate::json::Json;
use crate::outcome::Outcome;
use crate::stats::{percentile_sorted, Summary};
use crate::trace::Tracer;
use crate::RunConfig;

pub const SCALE: f64 = 0.1;
/// Offered rates, requests per second.  Higher rates are left out: on a
/// 2-core host the service plus this load generator shed requests at 64k/s
/// whenever a host stall outlasts the 16 ms the 1024-slot queue holds
/// (README.md, "Deviations").
pub const RUNGS: [f64; 3] = [1_000.0, 4_000.0, 16_000.0];
/// Share of the run's seconds given to each rung; the top rung, which the
/// end-to-end metrics are read at, gets the most.
const RUNG_SHARE: [f64; 3] = [0.3, 0.2, 0.5];
/// The lowest rung, where a batch holds about one request, and the top one,
/// where `latency_ms` and `peak_mib` are read.
const LOW: usize = 0;
const TOP: usize = 2;
/// Requests per window of the windowed p99 (10 samples beyond its p99).
pub const WINDOW: usize = 1_000;
/// A rung passes only with (windowed) p99 latency at or below this.
pub const P99_LIMIT_US: f64 = 5_000.0;
/// ... with (windowed) p99 sender lateness below this ...
pub const LATENESS_LIMIT_US: f64 = 1_000.0;
/// ... and with at least this share of the offered rate answered.
pub const MIN_ACHIEVED: f64 = 0.95;
/// Every this many requests also get spans in the traced run.
const SPAN_EVERY: usize = 64;

/// Arrival times, in seconds from the rung's start, of a Poisson process of
/// `rate` per second over `duration` seconds.
pub fn poisson_schedule(rate: f64, duration: f64, seed: u64) -> Vec<f64> {
    let mut rng = seeded_rng(seed);
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * duration * 1.1) as usize);
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= duration {
            return out;
        }
        out.push(t);
    }
}

/// What one rung measured.
#[derive(Debug, Clone, Default)]
pub struct Rung {
    pub offered_rps: f64,
    /// Scheduled length of the rung, seconds.
    pub duration_s: f64,
    pub sent: usize,
    /// Latency of each answered request, scheduled send to answer, µs.
    pub latency_us: Vec<f64>,
    /// Sender lateness against the schedule, µs, one per request.
    pub lateness_us: Vec<f64>,
    /// Time inside `submit`, µs (traced run only).
    pub submit_us: Vec<f64>,
    /// From `submit` returning to `wait` returning, µs (traced run only).
    pub reply_us: Vec<f64>,
    pub shed: usize,
    pub deadline: usize,
    pub pool_err: usize,
    /// Answers that differ from `DmcpModel::probabilities` in any bit.
    pub wrong: usize,
    /// Any other error (a stopped service, a malformed request).
    pub other: usize,
    /// Answers served by a fallback (never compared bitwise).
    pub degraded: usize,
    /// From the rung's start to its last answer, seconds.
    pub elapsed_s: f64,
    /// Peak heap growth while the rung ran, MiB.
    pub peak_mib: f64,
}

impl Rung {
    pub fn failures(&self) -> usize {
        self.shed + self.deadline + self.pool_err + self.wrong + self.other
    }

    pub fn answered(&self) -> usize {
        self.latency_us.len()
    }

    pub fn achieved_rps(&self) -> f64 {
        self.answered() as f64 / self.elapsed_s
    }

    /// Whether the rung meets every condition of `max_rps`: no failed
    /// request (a failure misses any latency limit), windowed p99 latency
    /// within [`P99_LIMIT_US`], at least [`MIN_ACHIEVED`] of the offered rate
    /// answered, and a sender that held its schedule.  A rung whose sender
    /// ran late is invalid, not passed.
    pub fn passes(&self) -> bool {
        let within = |v: &[f64], limit: f64| windowed_p99(v).is_some_and(|(p99, _)| p99 <= limit);
        self.sent > 0
            && self.failures() == 0
            && within(&self.latency_us, P99_LIMIT_US)
            && self.answered() as f64 >= MIN_ACHIEVED * self.offered_rps * self.duration_s
            && self.achieved_rps() >= MIN_ACHIEVED * self.offered_rps
            && within(&self.lateness_us, LATENESS_LIMIT_US)
    }
}

/// Median over consecutive [`WINDOW`]-sample windows of each window's p99,
/// with the number of windows; `None` with fewer than [`WINDOW`] samples.
/// A host stall lifts the p99 of the few windows it hits, so the median
/// keeps the tail of the service (or of the sender) itself.
pub fn windowed_p99(values: &[f64]) -> Option<(f64, usize)> {
    let p99s: Vec<f64> = values
        .chunks_exact(WINDOW)
        .map(|w| {
            let mut sorted = w.to_vec();
            sorted.sort_by(f64::total_cmp);
            percentile_sorted(&sorted, 9_900)
        })
        .collect();
    (!p99s.is_empty()).then(|| (Summary::of(&p99s).median, p99s.len()))
}

/// Median of a rung's latencies, or infinity when it answered nothing (every
/// request failed, which fails the run).
fn median_us(latency_us: &[f64]) -> f64 {
    if latency_us.is_empty() {
        f64::INFINITY
    } else {
        Summary::of(latency_us).median
    }
}

/// `max_rps`: the achieved rate of the highest passing rung, or `None`
/// when no rung passes.
pub fn max_rps(rungs: &[Rung]) -> Option<f64> {
    rungs
        .iter()
        .filter(|r| r.passes())
        .max_by(|a, b| a.offered_rps.total_cmp(&b.offered_rps))
        .map(Rung::achieved_rps)
}

/// The failure probability per request by Laplace's rule of succession,
/// `(failed + 1) / (attempted + 2)`: never 0, and it doubles with the first
/// failure in a ladder of hundreds of thousands of requests.
pub fn fail_ratio(failed: usize, attempted: usize) -> f64 {
    (failed as f64 + 1.0) / (attempted as f64 + 2.0)
}

/// Sleep until `due`.  The sender never spins: on two cores a spinning
/// sender holds a core the dispatcher and collector need, and a sleeping one
/// wakes within the timer slack (about 50 µs on Linux), sending everything
/// that fell due meanwhile.  Its lateness is measured and bounded.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

struct Sent {
    index: usize,
    due: Instant,
    sent: Instant,
    submitted: Instant,
    pending: Result<PendingPrediction, ServeError>,
}

/// Drive one rung of `duration_s` seconds: `schedule` offsets from a
/// common start, request `i` carrying `requests[(first + i) % n]`.
#[allow(clippy::too_many_arguments)]
fn run_rung(
    service: &PredictionService,
    requests: &[SparseVec],
    expected: &[(Vec<f64>, Vec<f64>)],
    first: usize,
    rate: f64,
    duration_s: f64,
    schedule: &[f64],
    tracer: Option<&Tracer>,
) -> Rung {
    let client = service.client();
    // Built before the rung starts, so the sender only submits.
    let batch: Vec<SparseVec> = (0..schedule.len())
        .map(|i| requests[(first + i) % requests.len()].clone())
        .collect();
    let (tx, rx) = mpsc::channel::<Sent>();
    let start = Instant::now() + Duration::from_millis(2);
    let rung_span = tracer.map(|t| t.start());
    let (mut rung, peak_mib) = with_peak(|| {
        std::thread::scope(|scope| {
            let sender = scope.spawn(move || {
                for (i, (&offset, features)) in schedule.iter().zip(batch).enumerate() {
                    let due = start + Duration::from_secs_f64(offset);
                    wait_until(due);
                    let sent = Instant::now();
                    let pending = client.submit(features);
                    let submitted = Instant::now();
                    let msg = Sent {
                        index: i,
                        due,
                        sent,
                        submitted,
                        pending,
                    };
                    if tx.send(msg).is_err() {
                        return;
                    }
                }
            });
            let collector = scope.spawn(move || {
                let mut rung = Rung {
                    offered_rps: rate,
                    duration_s,
                    ..Rung::default()
                };
                let mut last = start;
                for msg in rx {
                    rung.sent += 1;
                    rung.lateness_us
                        .push((msg.sent - msg.due).as_secs_f64() * 1e6);
                    let answer = msg.pending.and_then(PendingPrediction::wait);
                    let done = Instant::now();
                    last = last.max(done);
                    match answer {
                        Ok(p) => {
                            let (cu, dur) = &expected[(first + msg.index) % expected.len()];
                            if p.degraded {
                                rung.degraded += 1;
                            } else if !(same_bits(&p.cu_probs, cu)
                                && same_bits(&p.duration_probs, dur))
                            {
                                rung.wrong += 1;
                                continue;
                            }
                            rung.latency_us.push((done - msg.due).as_secs_f64() * 1e6);
                        }
                        Err(ServeError::Overloaded { .. }) => rung.shed += 1,
                        Err(ServeError::DeadlineExceeded) => rung.deadline += 1,
                        Err(ServeError::Pool(_)) => rung.pool_err += 1,
                        Err(_) => rung.other += 1,
                    }
                    if let (Some(t), Some(parent)) = (tracer, rung_span) {
                        rung.submit_us
                            .push((msg.submitted - msg.sent).as_secs_f64() * 1e6);
                        rung.reply_us
                            .push((done - msg.submitted).as_secs_f64() * 1e6);
                        if msg.index % SPAN_EVERY == 0 {
                            let id = t.record("serve.request", Some(parent.id), msg.due, done);
                            t.record("serve.submit", Some(id), msg.sent, msg.submitted);
                            t.record("serve.wait", Some(id), msg.submitted, done);
                        }
                    }
                }
                rung.elapsed_s = (last - start).as_secs_f64();
                rung
            });
            sender.join().expect("sender thread panicked");
            collector.join().expect("collector thread panicked")
        })
    });
    rung.peak_mib = peak_mib;
    if let (Some(t), Some(open)) = (tracer, rung_span) {
        t.finish(open, "serve.rung", None);
    }
    rung.elapsed_s = rung.elapsed_s.max(duration_s);
    rung
}

/// Seconds of each rung for a run of `seconds`.
fn rung_seconds(seconds: f64) -> Vec<f64> {
    RUNG_SHARE.iter().map(|share| share * seconds).collect()
}

/// Run the whole ladder, lowest rate first.
fn run_ladder(
    service: &PredictionService,
    requests: &[SparseVec],
    expected: &[(Vec<f64>, Vec<f64>)],
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Vec<Rung> {
    let mut first = 0;
    RUNGS
        .iter()
        .zip(rung_seconds(seconds))
        .enumerate()
        .map(|(i, (&rate, duration))| {
            let schedule = poisson_schedule(rate, duration, derive_seed(seed, i as u64));
            let rung = run_rung(
                service, requests, expected, first, rate, duration, &schedule, tracer,
            );
            first += schedule.len();
            rung
        })
        .collect()
}

struct Served {
    service: PredictionService,
    /// Peak heap growth of starting the service (its model copy, queue and
    /// pool), MiB.
    footprint_mib: f64,
    model: DmcpModel,
    requests: Vec<SparseVec>,
    /// Each request's true destination.
    labels: Vec<usize>,
    patients: usize,
}

fn build(seed: u64) -> (Served, Vec<f64>, Vec<f64>) {
    setup(|| {
        let (cohort, gen_s) = generate(&CohortConfig::scaled(SCALE, seed));
        let dataset = Dataset::from_cohort(&cohort);
        let config = TrainConfig {
            seed,
            ..TrainConfig::paper_default().with_threads(THREADS)
        };
        let model = DmcpModel::train(&dataset, &config);
        let (requests, labels) = dataset
            .featurize(model.kind)
            .into_iter()
            .map(|s| (s.features, s.cu_label))
            .unzip();
        let (service, footprint_mib) =
            with_peak(|| PredictionService::start(model.clone(), ServeConfig::default()));
        let served = Served {
            service,
            footprint_mib,
            model,
            requests,
            labels,
            patients: cohort.patients.len(),
        };
        (served, gen_s)
    })
}

pub fn run(cfg: &RunConfig, tracer: Option<&Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let (served, setup_s, gen_s) = build(cfg.seed);
    let Served {
        service,
        footprint_mib,
        model,
        requests,
        labels,
        patients,
    } = served;
    // Check-only: the reference answers, outside every timer.
    let expected: Vec<(Vec<f64>, Vec<f64>)> =
        requests.iter().map(|f| model.probabilities(f)).collect();
    out.param("scale", Json::Num(SCALE));
    out.param("patients", Json::int(patients));
    out.param("distinct_requests", Json::int(requests.len()));
    out.param(
        "rungs_rps",
        Json::Arr(RUNGS.iter().map(|&r| Json::Num(r)).collect()),
    );
    out.param(
        "rung_s",
        Json::Arr(
            rung_seconds(cfg.seconds)
                .into_iter()
                .map(Json::Num)
                .collect(),
        ),
    );
    out.param(
        "serve_config",
        Json::str(format!("{:?}", ServeConfig::default())),
    );

    let ladder = |tracer| {
        run_ladder(
            &service,
            &requests,
            &expected,
            cfg.seed,
            cfg.seconds,
            tracer,
        )
    };
    match tracer {
        None => {
            out.timing("setup_s", "s", &setup_s);
            let rungs = ladder(None);
            print_ladder(&rungs);
            report_ladder(&mut out, &rungs, footprint_mib);
            // Non-degraded answers equal `expected` bit for bit (checked
            // below), so this is the accuracy of what the service answers.
            let right = expected
                .iter()
                .zip(&labels)
                .filter(|((cu, _), &label)| argmax(cu) == label)
                .count();
            out.value("ac_cu", "ratio", right as f64 / labels.len() as f64);
            count_requests(&mut out, &rungs);
            check_answers(&mut out, &rungs);
        }
        Some(tracer) => {
            out.timing("ehr.generate_s", "s", &gen_s);
            let plain = ladder(None);
            let traced = ladder(Some(tracer));
            print_ladder(&plain);
            print_ladder(&traced);
            count_requests(&mut out, &plain);
            count_requests(&mut out, &traced);
            check_answers(&mut out, plain.iter().chain(&traced));
            let high = &traced[TOP];
            let base = median_us(&plain[TOP].latency_us);
            let p50_traced = median_us(&high.latency_us);
            out.value("trace.overhead_ms", "ms", (p50_traced - base) / 1e3);
            out.value(
                "trace.overhead_pct",
                "%",
                100.0 * (p50_traced - base) / base,
            );
            let mut lag = high.lateness_us.clone();
            lag.sort_by(f64::total_cmp);
            out.value_with(
                "serve.lag_us",
                "us",
                percentile_sorted(&lag, 9_900),
                Some(Summary::of_sorted(&lag)),
            );
            out.timing("serve.submit_us", "us", &high.submit_us);
            out.timing("serve.reply_us", "us", &high.reply_us);
            let sum = |f: fn(&Rung) -> usize| traced.iter().map(f).sum::<usize>();
            out.count("serve.shed", sum(|r| r.shed));
            out.count("serve.deadline", sum(|r| r.deadline));
            out.count("serve.pool_err", sum(|r| r.pool_err));
            out.count("serve.wrong", sum(|r| r.wrong));
            out.count("serve.respawns", service.health().respawned_total as usize);
            block_replays(&mut out, &model, &requests);
        }
    }
    service.shutdown();
    out
}

fn print_ladder(rungs: &[Rung]) {
    for r in rungs {
        println!(
            "  rung {:>6} rps: sent {:>6} answered {:>6} achieved {:>8.1} rps, latency {}, \
             windowed p99 {:?}, windowed lateness p99 {:?}, failures {}, degraded {}{}",
            r.offered_rps,
            r.sent,
            r.answered(),
            r.achieved_rps(),
            if r.latency_us.is_empty() {
                "-".into()
            } else {
                Summary::of(&r.latency_us).describe()
            },
            windowed_p99(&r.latency_us),
            windowed_p99(&r.lateness_us),
            r.failures(),
            r.degraded,
            if r.passes() { "" } else { "  (does not pass)" },
        );
    }
}

/// Every request is an operation; shed, expired, errored and wrong ones are
/// failed operations (a wrong answer also fails [`check_answers`]).
fn count_requests(out: &mut Outcome, rungs: &[Rung]) {
    for r in rungs {
        out.operations += r.sent;
        out.failed_operations += r.failures();
    }
}

fn check_answers<'a>(out: &mut Outcome, rungs: impl IntoIterator<Item = &'a Rung>) {
    out.check(
        "serve.answers_bitwise",
        rungs.into_iter().all(|r| r.wrong == 0),
        "every non-degraded answer equals DmcpModel::probabilities",
    );
}

/// The end-to-end metrics of one ladder, read at its top rung; the other
/// figures of the ladder are printed and recorded as diagnostics.
fn report_ladder(out: &mut Outcome, rungs: &[Rung], footprint_mib: f64) {
    let top = &rungs[TOP];
    let latency_ms: Vec<f64> = top.latency_us.iter().map(|us| us / 1e3).collect();
    if latency_ms.is_empty() {
        // Every request failed, which fails the run.
        out.value("latency_ms", "ms", f64::INFINITY);
    } else {
        out.timing("latency_ms", "ms", &latency_ms);
    }
    out.value("peak_mib", "MiB", footprint_mib + top.peak_mib);
    out.diagnostic("serve.footprint_mib", "MiB", footprint_mib, None);
    let low = &rungs[LOW];
    let pooled = (!low.latency_us.is_empty()).then(|| Summary::of(&low.latency_us));
    out.diagnostic("p50_us.low", "us", median_us(&low.latency_us), pooled);
    for (rung, tag) in [(low, "low"), (top, "high")] {
        let windowed = windowed_p99(&rung.latency_us);
        // Fewer than one window of answers means requests failed, which
        // fails the run; the p99 is then reported as missing every limit.
        let p99 = windowed.map_or(f64::INFINITY, |(p99, _)| p99);
        let detail = windowed.map(|(p99, n)| Summary {
            n,
            median: p99,
            tail: None,
        });
        out.diagnostic(&format!("p99_us.{tag}"), "us", p99, detail);
    }
    out.diagnostic("max_rps", "1/s", max_rps(rungs).unwrap_or(0.0), None);
    let sent: usize = rungs.iter().map(|r| r.sent).sum();
    let failed: usize = rungs.iter().map(Rung::failures).sum();
    out.diagnostic("fail_ratio", "ratio", fail_ratio(failed, sent), None);
}

/// Index of the largest probability, the first on ties.
fn argmax(probs: &[f64]) -> usize {
    probs
        .iter()
        .enumerate()
        .fold(0, |best, (i, &p)| if p > probs[best] { i } else { best })
}

/// `DmcpModel::probabilities_block` on blocks of 1 and 64 requests: the
/// scoring a lone request and a full batch cost.
fn block_replays(out: &mut Outcome, model: &DmcpModel, requests: &[SparseVec]) {
    for k in [1usize, 64] {
        let mut block = CsrMatrix::with_dim(model.num_features());
        let mut next = 0;
        let times = replay(|| {
            block.clear_rows();
            for _ in 0..k {
                block.push_row(&requests[next % requests.len()]);
                next += 1;
            }
            let t = Instant::now();
            std::hint::black_box(model.probabilities_block(&block));
            since(t)
        });
        let name = format!("score.block_us.k{k}");
        out.timing(
            &name,
            "us",
            &times.into_iter().map(|s| s * 1e6).collect::<Vec<_>>(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_poisson_schedule() {
        let a = poisson_schedule(8_000.0, 0.5, 11);
        let b = poisson_schedule(8_000.0, 0.5, 11);
        let c = poisson_schedule(8_000.0, 0.5, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..0.5).contains(&t)));
        // About rate × duration arrivals (4000 ± 5σ).
        assert!((3_684..=4_316).contains(&a.len()), "{}", a.len());
    }

    fn rung(rate: f64, answered: usize, latency: f64, lateness: f64) -> Rung {
        Rung {
            offered_rps: rate,
            sent: answered,
            latency_us: vec![latency; answered],
            lateness_us: vec![lateness; answered],
            duration_s: 1.0,
            elapsed_s: 1.0,
            ..Rung::default()
        }
    }

    #[test]
    fn max_rps_is_the_highest_passing_rung() {
        let ok = |rate: f64| rung(rate, rate as usize, 300.0, 5.0);
        let rungs = vec![ok(1_000.0), ok(8_000.0), ok(32_000.0)];
        assert_eq!(max_rps(&rungs), Some(32_000.0));

        // Too slow at the top rung: p99 over the limit.
        let mut slow = rungs.clone();
        slow[2].latency_us = vec![P99_LIMIT_US + 1.0; 32_000];
        assert_eq!(max_rps(&slow), Some(8_000.0));

        // One shed request fails the rung.
        let mut shed = rungs.clone();
        shed[2].shed = 1;
        assert_eq!(max_rps(&shed), Some(8_000.0));

        // Only 90% of the offered rate answered.
        let mut short = rungs.clone();
        short[2] = rung(32_000.0, 28_800, 300.0, 5.0);
        assert_eq!(max_rps(&short), Some(8_000.0));

        // The sender could not hold its schedule: invalid, not passed.
        let mut late = rungs.clone();
        late[2].lateness_us = vec![LATENESS_LIMIT_US + 1.0; 32_000];
        assert_eq!(max_rps(&late), Some(8_000.0));

        // A wrong answer fails the rung.
        let mut wrong = rungs.clone();
        wrong[1].wrong = 1;
        assert_eq!(max_rps(&wrong), Some(32_000.0));
        wrong[2].wrong = 1;
        wrong[0].deadline = 1;
        assert_eq!(max_rps(&wrong), None);
    }

    #[test]
    fn windowed_p99_is_the_median_window_p99() {
        let mut v = vec![100.0; 3 * WINDOW + 10];
        // One stalled window: its p99 rises, the median of three stays.
        for x in &mut v[WINDOW..WINDOW + 50] {
            *x = 9_000.0;
        }
        v[2 * WINDOW + 5] = 7_000.0;
        assert_eq!(windowed_p99(&v), Some((100.0, 3)));
        // Two of three windows stalled: the median follows them.
        for x in &mut v[..50] {
            *x = 8_000.0;
        }
        assert_eq!(windowed_p99(&v), Some((8_000.0, 3)));
        assert_eq!(windowed_p99(&v[..WINDOW - 1]), None);
    }

    #[test]
    fn fail_ratio_is_never_zero() {
        assert_eq!(fail_ratio(0, 998), 1.0 / 1000.0);
        assert_eq!(fail_ratio(1, 998), 2.0 / 1000.0);
    }
}
