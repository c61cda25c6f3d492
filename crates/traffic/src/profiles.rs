//! Per-benchmark workload profiles for the CMP traffic model.
//!
//! The paper extracts traces from SPEComp 2001 (fma3d, equake, mgrid), PARSEC
//! (blackscholes, streamcluster, swaptions), the NAS Parallel Benchmarks,
//! SPECjbb, and Splash-2 (FFT, LU, radix) running on a 32-core Simics system.
//! We cannot ship those traces, so each benchmark is represented by the
//! statistical knobs that matter to the network (DESIGN.md §5): miss
//! intensity, read/write mix, coherence sharing degree, bank temporal
//! locality (the source of the paper's Fig. 1 locality), burstiness, and
//! hotspot skew (SPECjbb's traffic is noted as uneven in the paper §VI.A).
//!
//! The values are calibrated so the suite's measured end-to-end locality
//! averages near the paper's ~22% and crossbar-connection locality near ~31%
//! on the 4×4 concentrated mesh; they are *profiles*, not measurements of the
//! original applications.

/// Statistical workload knobs for one benchmark application.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct BenchmarkProfile {
    /// Benchmark name as it appears in the paper's figures.
    pub name: &'static str,
    /// Probability per cycle that an unthrottled core issues a new L1 miss.
    pub miss_rate: f64,
    /// Fraction of misses that are writes (write-through protocol).
    pub write_fraction: f64,
    /// Probability a write triggers invalidations to sharers.
    pub coherence_fraction: f64,
    /// Mean number of sharers invalidated per coherence event.
    pub avg_sharers: f64,
    /// Probability the next miss targets the same L2 bank as the previous
    /// one (drives communication temporal locality).
    pub bank_locality: f64,
    /// Probability of staying in the bursting state each cycle (two-state
    /// Markov on/off modulation; `0` disables bursts).
    pub burstiness: f64,
    /// Zipf-like skew of bank popularity (`0` = uniform; SPECjbb is skewed).
    pub hotspot_skew: f64,
}

impl BenchmarkProfile {
    /// The full 12-application suite, in the order the paper's figures list
    /// them.
    pub fn suite() -> &'static [BenchmarkProfile] {
        SUITE
    }

    /// Looks a profile up by name (case-insensitive).
    pub fn by_name(name: &str) -> Option<&'static BenchmarkProfile> {
        SUITE.iter().find(|p| p.name.eq_ignore_ascii_case(name))
    }
}

/// SPEComp / PARSEC / NPB / SPECjbb / Splash-2 profile suite.
static SUITE: &[BenchmarkProfile] = &[
    BenchmarkProfile {
        name: "fma3d",
        miss_rate: 0.020,
        write_fraction: 0.30,
        coherence_fraction: 0.20,
        avg_sharers: 1.5,
        bank_locality: 0.40,
        burstiness: 0.50,
        hotspot_skew: 0.0,
    },
    BenchmarkProfile {
        name: "equake",
        miss_rate: 0.025,
        write_fraction: 0.35,
        coherence_fraction: 0.25,
        avg_sharers: 2.0,
        bank_locality: 0.35,
        burstiness: 0.55,
        hotspot_skew: 0.0,
    },
    BenchmarkProfile {
        name: "mgrid",
        miss_rate: 0.018,
        write_fraction: 0.25,
        coherence_fraction: 0.15,
        avg_sharers: 1.2,
        bank_locality: 0.50,
        burstiness: 0.40,
        hotspot_skew: 0.0,
    },
    BenchmarkProfile {
        name: "blackscholes",
        miss_rate: 0.008,
        write_fraction: 0.20,
        coherence_fraction: 0.10,
        avg_sharers: 1.0,
        bank_locality: 0.45,
        burstiness: 0.30,
        hotspot_skew: 0.0,
    },
    BenchmarkProfile {
        name: "streamcluster",
        miss_rate: 0.030,
        write_fraction: 0.30,
        coherence_fraction: 0.30,
        avg_sharers: 2.5,
        bank_locality: 0.30,
        burstiness: 0.60,
        hotspot_skew: 0.0,
    },
    BenchmarkProfile {
        name: "swaptions",
        miss_rate: 0.006,
        write_fraction: 0.25,
        coherence_fraction: 0.10,
        avg_sharers: 1.0,
        bank_locality: 0.40,
        burstiness: 0.25,
        hotspot_skew: 0.0,
    },
    BenchmarkProfile {
        name: "cg",
        miss_rate: 0.028,
        write_fraction: 0.30,
        coherence_fraction: 0.20,
        avg_sharers: 1.8,
        bank_locality: 0.45,
        burstiness: 0.45,
        hotspot_skew: 0.0,
    },
    BenchmarkProfile {
        name: "is",
        miss_rate: 0.035,
        write_fraction: 0.40,
        coherence_fraction: 0.25,
        avg_sharers: 2.0,
        bank_locality: 0.25,
        burstiness: 0.50,
        hotspot_skew: 0.0,
    },
    BenchmarkProfile {
        name: "jbb",
        miss_rate: 0.022,
        write_fraction: 0.35,
        coherence_fraction: 0.30,
        avg_sharers: 2.2,
        bank_locality: 0.25,
        burstiness: 0.55,
        hotspot_skew: 2.0,
    },
    BenchmarkProfile {
        name: "fft",
        miss_rate: 0.026,
        write_fraction: 0.30,
        coherence_fraction: 0.20,
        avg_sharers: 1.6,
        bank_locality: 0.35,
        burstiness: 0.45,
        hotspot_skew: 0.0,
    },
    BenchmarkProfile {
        name: "lu",
        miss_rate: 0.020,
        write_fraction: 0.28,
        coherence_fraction: 0.18,
        avg_sharers: 1.5,
        bank_locality: 0.45,
        burstiness: 0.40,
        hotspot_skew: 0.0,
    },
    BenchmarkProfile {
        name: "radix",
        miss_rate: 0.033,
        write_fraction: 0.45,
        coherence_fraction: 0.25,
        avg_sharers: 2.0,
        bank_locality: 0.25,
        burstiness: 0.50,
        hotspot_skew: 0.0,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_twelve_unique_benchmarks() {
        let suite = BenchmarkProfile::suite();
        assert_eq!(suite.len(), 12);
        let names: std::collections::HashSet<_> = suite.iter().map(|p| p.name).collect();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn probabilities_are_valid() {
        for p in BenchmarkProfile::suite() {
            assert!(p.miss_rate > 0.0 && p.miss_rate < 1.0, "{}", p.name);
            for v in [
                p.write_fraction,
                p.coherence_fraction,
                p.bank_locality,
                p.burstiness,
            ] {
                assert!((0.0..=1.0).contains(&v), "{}", p.name);
            }
            assert!(p.avg_sharers >= 0.0);
            assert!(p.hotspot_skew >= 0.0);
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert_eq!(BenchmarkProfile::by_name("FMA3D").unwrap().name, "fma3d");
        assert_eq!(BenchmarkProfile::by_name("jbb").unwrap().hotspot_skew, 2.0);
        assert!(BenchmarkProfile::by_name("nope").is_none());
    }

    #[test]
    fn only_jbb_is_skewed() {
        for p in BenchmarkProfile::suite() {
            if p.name == "jbb" {
                assert!(p.hotspot_skew > 0.0);
            } else {
                assert_eq!(p.hotspot_skew, 0.0, "{}", p.name);
            }
        }
    }
}
