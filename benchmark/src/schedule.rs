//! The seeded open-loop arrival schedule of the `serve_open` workload.
//!
//! Two steady tenants each send a Poisson stream: a fixed number of
//! arrivals at sorted uniform times over the run, which is a Poisson
//! process conditioned on its count (so every run sends the same job
//! count and the same mix). A quarter of each steady tenant's jobs are
//! single traditional runs, the rest DL sweeps, in seeded order. A third
//! tenant sends a burst of DL sweeps at a fixed period.
//!
//! Arrival times, tenants and kinds come from [`TRAFFIC_SEED`], so every
//! run replays one Poisson realization; the workload seed draws what each
//! job simulates. With 70–110 jobs per run, redrawing the arrival times
//! per workload seed moved the p90 latency by up to 2× between seeds,
//! because a run's tail is set by how its few arrival clusters line up
//! with the bursts.

/// SplitMix64: a tiny, fully specified generator, so a schedule depends
/// only on the seed and this file.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Seed of the arrival pattern shared by every run.
pub const TRAFFIC_SEED: u64 = 0x5e12_7e0a;

/// A seed for stream `salt` derived from `seed`.
pub fn derive(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// What one arrival asks the daemon to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// A `Dl1D` sweep over `DL_SWEEP_SEEDS` seeds.
    DlSweep,
    /// One `Traditional1D` run.
    Trad,
}

impl JobKind {
    pub fn name(self) -> &'static str {
        match self {
            Self::DlSweep => "dl_sweep",
            Self::Trad => "trad",
        }
    }
}

/// Runs per DL sweep job.
pub const DL_SWEEP_SEEDS: usize = 4;

/// One scheduled submission.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Due time, seconds after the schedule's origin.
    pub at_s: f64,
    pub tenant: &'static str,
    pub kind: JobKind,
    /// One scenario seed per run of the job.
    pub seeds: Vec<u64>,
}

/// Shape of the traffic.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    /// Length of the sending window.
    pub seconds: f64,
    /// Steady arrivals per second, both steady tenants together.
    pub steady_rate: f64,
    /// Share of steady arrivals that are traditional runs.
    pub trad_share: f64,
    /// Seconds between bursts; the first lands half a period in.
    pub burst_period_s: f64,
    /// DL sweeps per burst.
    pub burst_size: usize,
}

const STEADY_TENANTS: [&str; 2] = ["steady-a", "steady-b"];
pub const BURST_TENANT: &str = "burst";

/// The full schedule, sorted by due time (ties keep generation order):
/// the arrival pattern of [`TRAFFIC_SEED`], with job contents drawn from
/// the workload `seed`.
pub fn arrivals(seed: u64, traffic: &Traffic) -> Vec<Arrival> {
    let mut out = Vec::new();
    let per_tenant = (traffic.steady_rate * traffic.seconds / 2.0).round() as usize;
    let trad = (per_tenant as f64 * traffic.trad_share).round() as usize;
    for (t, &tenant) in STEADY_TENANTS.iter().enumerate() {
        let mut rng = SplitMix64::new(derive(TRAFFIC_SEED, 1 + t as u64));
        let mut times: Vec<f64> = (0..per_tenant)
            .map(|_| rng.next_f64() * traffic.seconds)
            .collect();
        times.sort_by(f64::total_cmp);
        let mut kinds: Vec<JobKind> = (0..per_tenant)
            .map(|i| {
                if i < trad {
                    JobKind::Trad
                } else {
                    JobKind::DlSweep
                }
            })
            .collect();
        rng.shuffle(&mut kinds);
        for (at_s, kind) in times.into_iter().zip(kinds) {
            out.push(Arrival {
                at_s,
                tenant,
                kind,
                seeds: Vec::new(),
            });
        }
    }
    // At least one burst, however short the window.
    let mut at_s = 0.5 * traffic.burst_period_s.min(traffic.seconds);
    while at_s < traffic.seconds {
        for _ in 0..traffic.burst_size {
            out.push(Arrival {
                at_s,
                tenant: BURST_TENANT,
                kind: JobKind::DlSweep,
                seeds: Vec::new(),
            });
        }
        at_s += traffic.burst_period_s;
    }
    out.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    let mut rng = SplitMix64::new(derive(seed, 99));
    for a in &mut out {
        let runs = match a.kind {
            JobKind::DlSweep => DL_SWEEP_SEEDS,
            JobKind::Trad => 1,
        };
        // Scenario seeds stay below 2^53 so they survive the wire's f64.
        a.seeds = (0..runs).map(|_| rng.next_u64() >> 12).collect();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRAFFIC: Traffic = Traffic {
        seconds: 25.0,
        steady_rate: 4.0,
        trad_share: 0.25,
        burst_period_s: 8.0,
        burst_size: 6,
    };

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(arrivals(7, &TRAFFIC), arrivals(7, &TRAFFIC));
        let (a, b) = (arrivals(7, &TRAFFIC), arrivals(8, &TRAFFIC));
        assert_ne!(a, b);
        // One arrival pattern; the workload seed only changes job contents.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.at_s, x.tenant, x.kind), (y.at_s, y.tenant, y.kind));
            assert_ne!(x.seeds, y.seeds);
        }
    }

    #[test]
    fn counts_and_mix_are_fixed_by_the_traffic_shape() {
        for seed in [1, 2, 3] {
            let a = arrivals(seed, &TRAFFIC);
            let steady: Vec<&Arrival> = a.iter().filter(|x| x.tenant != BURST_TENANT).collect();
            assert_eq!(steady.len(), 100);
            assert_eq!(
                steady.iter().filter(|x| x.kind == JobKind::Trad).count(),
                26
            );
            let bursts = a.iter().filter(|x| x.tenant == BURST_TENANT).count();
            assert_eq!(bursts, 3 * 6);
            assert!(a.windows(2).all(|w| w[0].at_s <= w[1].at_s));
            assert!(a.iter().all(|x| (0.0..TRAFFIC.seconds).contains(&x.at_s)));
            for x in &a {
                let runs = if x.kind == JobKind::Trad {
                    1
                } else {
                    DL_SWEEP_SEEDS
                };
                assert_eq!(x.seeds.len(), runs);
            }
        }
    }
}
