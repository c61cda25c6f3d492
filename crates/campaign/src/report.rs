//! Merging point results into the campaign report.
//!
//! The report (`noc-campaign-report/3`) is the campaign's one consumable
//! artifact: per-curve latency/throughput/energy series ready for plotting;
//! **seed groups**, the curves that differ only in seed, with a per-load mean
//! latency and its 95 % t-interval; and two derived observations the paper's
//! figure family leans on — per-curve **saturation load** and cross-scheme
//! **crossover load** between seed groups.
//!
//! The merge is a pure function of the point results, so a fully-cached
//! re-run re-emits the first run's report byte-for-byte — pinned by
//! `tests/campaign_cache.rs` and the check.sh smoke.

use crate::cache::PointResult;
use crate::spec::PointSpec;
use noc_sim::manifest::escape_json;
use std::fmt::Write as _;

/// Schema identifier stamped into every campaign report.
pub(crate) const REPORT_SCHEMA: &str = "noc-campaign-report/3";

/// One latency–throughput curve: every point sharing all coordinates except
/// load, ordered by ascending load.
#[derive(Clone, Debug)]
pub struct Curve {
    /// The shared coordinates (`PointSpec::key(true, true)`).
    pub key: String,
    /// Representative point spec (coordinates other than load).
    pub spec: PointSpec,
    /// Points ordered by ascending load.
    pub series: Vec<PointResult>,
    /// The first sampled load at which the curve saturates, if any: the run
    /// failed to drain, or mean latency exceeded [`SATURATION_FACTOR`] × the
    /// latency of the curve's lowest-load point with a measured delivery.
    pub saturation_load: Option<f64>,
}

/// Latency multiple over the lowest-load point that declares saturation.
/// The conventional knee criterion for load–latency sweeps; the paper's
/// Fig. 12 curves turn vertical well past this multiple, so the detected
/// load is a stable, slightly conservative knee estimate.
pub(crate) const SATURATION_FACTOR: f64 = 3.0;

/// Two-sided 95 % Student-t critical values, `t(0.975, df)` for df = 1..=30.
const T95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// A sample mean with its two-sided 95 % Student-t interval.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Interval {
    /// Samples.
    pub n: usize,
    /// Their mean.
    pub mean: f64,
    /// Lower end: `mean − t(0.975, n − 1) · s / √n`.
    pub lo: f64,
    /// Upper end: `mean + t(0.975, n − 1) · s / √n`.
    pub hi: f64,
}

impl Interval {
    /// The interval of `samples`, `None` when there are none. One sample has
    /// a zero-width interval; above 30 degrees of freedom the df = 30 value
    /// of t is used.
    pub fn of(samples: &[f64]) -> Option<Self> {
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let ss: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum();
        let half = match n {
            0 => return None,
            1 => 0.0,
            _ => T95[(n - 2).min(T95.len() - 1)] * (ss / ((n - 1) * n) as f64).sqrt(),
        };
        let (lo, hi) = (mean - half, mean + half);
        Some(Self { n, mean, lo, hi })
    }
}

/// The curves that share every coordinate but the seed, as one
/// configuration measured over seeds.
#[derive(Clone, Debug)]
pub struct SeedGroup {
    /// The shared coordinates (`PointSpec::key(true, false)`).
    pub key: String,
    /// Representative point spec (the first curve's).
    pub spec: PointSpec,
    /// Per sampled load, ascending: the latency over the seeds whose point
    /// delivered a measured packet. A load no seed delivered at is left out.
    pub latency: Vec<(f64, Interval)>,
}

/// A detected latency crossover between two seed groups that share every
/// other coordinate: the smallest sampled load at which their latency
/// intervals separate in the opposite order to the last load where they
/// separated.
#[derive(Clone, Debug)]
pub struct Crossover {
    /// The pair's shared coordinates (`PointSpec::key(false, false)`).
    pub group: String,
    /// Scheme of the group that was faster at the previous separated load.
    pub was_faster: String,
    /// Scheme that is faster from `load` on.
    pub now_faster: String,
    /// The load at which the flip is first observed.
    pub load: f64,
}

/// The merged campaign report.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Campaign name (from the spec).
    pub name: String,
    /// Git revision the results were produced at.
    pub git_rev: String,
    /// All curves, one per seed, in first-appearance order of the expansion.
    pub curves: Vec<Curve>,
    /// The curves grouped over seeds, in first-appearance order.
    pub groups: Vec<SeedGroup>,
    /// Detected cross-scheme crossovers, in deterministic order.
    pub crossovers: Vec<Crossover>,
}

impl CampaignReport {
    /// Merges point results (in expansion order) into curves and derived
    /// observations.
    pub fn merge(name: &str, git_rev: &str, results: &[PointResult]) -> Self {
        let mut curves: Vec<Curve> = Vec::new();
        for result in results {
            let key = result.spec.key(true, true);
            match curves.iter_mut().find(|c| c.key == key) {
                Some(curve) => curve.series.push(result.clone()),
                None => curves.push(Curve {
                    key,
                    spec: result.spec.clone(),
                    series: vec![result.clone()],
                    saturation_load: None,
                }),
            }
        }
        for curve in &mut curves {
            curve
                .series
                .sort_by(|a, b| a.spec.load.total_cmp(&b.spec.load));
            curve.saturation_load = saturation_load(&curve.series);
        }
        let groups = seed_groups(&curves);
        let crossovers = find_crossovers(&groups);
        Self {
            name: name.to_string(),
            git_rev: git_rev.to_string(),
            curves,
            groups,
            crossovers,
        }
    }

    /// Serializes the report as a `noc-campaign-report/3` JSON document.
    /// Deterministic: byte-identical for identical inputs.
    pub fn to_json(&self) -> String {
        let total: usize = self.curves.iter().map(|c| c.series.len()).sum();
        let mut s = String::with_capacity(1024 + total * 256);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": \"{REPORT_SCHEMA}\",");
        let _ = writeln!(s, "  \"name\": \"{}\",", escape_json(&self.name));
        let _ = writeln!(s, "  \"git_rev\": \"{}\",", escape_json(&self.git_rev));
        let _ = writeln!(s, "  \"points\": {total},");
        s.push_str("  \"curves\": ");
        write_array(&mut s, &self.curves, "  ", write_curve);
        s.push_str(",\n  \"groups\": ");
        write_array(&mut s, &self.groups, "  ", write_group);
        s.push_str(",\n  \"crossovers\": ");
        write_array(&mut s, &self.crossovers, "  ", |s, x| {
            let _ = write!(
                s,
                "    {{\"group\": \"{}\", \"was_faster\": \"{}\", \"now_faster\": \"{}\", \
                 \"load\": {:?}}}",
                escape_json(&x.group),
                escape_json(&x.was_faster),
                escape_json(&x.now_faster),
                x.load
            );
        });
        s.push_str("\n}\n");
        s
    }

    /// A terse human-readable summary: one line per seed group (its key,
    /// seed count and knee over the seeds), then one per crossover.
    pub fn render_summary(&self) -> String {
        let mut out = format!(
            "campaign {}: {} curve(s) in {} seed group(s)",
            self.name,
            self.curves.len(),
            self.groups.len()
        );
        for group in &self.groups {
            let knees: Vec<Option<f64>> = self
                .curves
                .iter()
                .filter(|c| c.spec.key(true, false) == group.key)
                .map(|c| c.saturation_load)
                .collect();
            let seeds = knees.len();
            let saturated: Vec<f64> = knees.into_iter().flatten().collect();
            let knee = match saturated.iter().copied().reduce(f64::min) {
                None => "no saturation observed".to_string(),
                Some(lo) => {
                    let hi = saturated.iter().copied().fold(lo, f64::max);
                    let mut knee = format!("saturates @ load {lo:?}");
                    if hi != lo {
                        let _ = write!(knee, "..{hi:?}");
                    }
                    if saturated.len() < seeds {
                        let _ = write!(knee, " in {} of {seeds} seeds", saturated.len());
                    }
                    knee
                }
            };
            let _ = write!(out, "\n  {}  seeds {seeds}  {knee}", group.key);
        }
        for x in &self.crossovers {
            let _ = write!(
                out,
                "\n  crossover {}: {} overtakes {} @ load {:?}",
                x.group, x.now_faster, x.was_faster, x.load
            );
        }
        out
    }
}

/// Writes `items` as a JSON array, one item per line, the closing bracket
/// at `indent`.
fn write_array<T>(s: &mut String, items: &[T], indent: &str, item: impl Fn(&mut String, &T)) {
    s.push('[');
    for (i, x) in items.iter().enumerate() {
        s.push_str(if i == 0 { "\n" } else { ",\n" });
        item(s, x);
    }
    if !items.is_empty() {
        s.push('\n');
        s.push_str(indent);
    }
    s.push(']');
}

fn write_curve(s: &mut String, curve: &Curve) {
    let p = &curve.spec;
    let _ = write!(
        s,
        "    {{\"key\": \"{}\", \"topology\": \"{}\", \"traffic\": \"{}\", \
         \"scheme\": \"{}\", \"routing\": \"{}\", \"va\": \"{}\", \"vcs\": {}, \
         \"buffer\": {}, \"packet\": {}, \"seed\": {}, \"saturation_load\": {}, \"series\": ",
        escape_json(&curve.key),
        escape_json(&p.topology),
        escape_json(&p.traffic),
        p.scheme.canonical(),
        crate::spec::routing_name(p.routing),
        crate::spec::va_name(p.va),
        p.vcs,
        p.buffer,
        p.packet,
        p.seed,
        curve.saturation_load.map_or("null".into(), json_f64)
    );
    write_array(s, &curve.series, "    ", |s, r| {
        let _ = write!(
            s,
            "      {{\"load\": {:?}, \"config_hash\": \"{}\", \"avg_latency\": {}, \
             \"p99_latency\": {}, \"avg_hops\": {}, \"throughput\": {}, \
             \"reusability\": {}, \"bypass_rate\": {}, \"energy_pj\": {}, \
             \"flit_traversals\": {}, \"header_hit_rate\": {}, \"xbar_locality\": {}, \
             \"end_to_end_locality\": {}, \"cycles\": {}, \"delivered\": {}, \"drained\": {}}}",
            r.spec.load,
            escape_json(&r.config_hash),
            json_f64(r.avg_latency),
            r.p99_latency,
            json_f64(r.avg_hops),
            json_f64(r.throughput),
            json_f64(r.reusability),
            json_f64(r.bypass_rate),
            json_f64(r.energy_pj),
            r.flit_traversals,
            json_f64(r.header_hit_rate),
            json_f64(r.xbar_locality),
            json_f64(r.end_to_end_locality),
            r.cycles,
            r.measured_delivered,
            r.drained
        );
    });
    s.push('}');
}

fn write_group(s: &mut String, group: &SeedGroup) {
    let key = escape_json(&group.key);
    let _ = write!(s, "    {{\"key\": \"{key}\", \"series\": ");
    write_array(s, &group.latency, "    ", |s, (load, x)| {
        let (n, mean, lo, hi) = (x.n, json_f64(x.mean), json_f64(x.lo), json_f64(x.hi));
        let _ = write!(
            s,
            "      {{\"load\": {load:?}, \"n\": {n}, \"mean\": {mean}, \"lo\": {lo}, \"hi\": {hi}}}"
        );
    });
    s.push('}');
}

fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// The knee of one load-ordered series, per the criterion on
/// [`SATURATION_FACTOR`]. The reference is the lowest-load point with a
/// measured delivery (one without has no latency to multiply); an undrained
/// point saturates regardless of its (censored) measured latency.
fn saturation_load(series: &[PointResult]) -> Option<f64> {
    let threshold = series
        .iter()
        .find(|p| p.measured_delivered > 0)
        .map_or(f64::INFINITY, |p| p.avg_latency * SATURATION_FACTOR);
    series
        .iter()
        .find(|p| !p.drained || p.avg_latency > threshold)
        .map(|p| p.spec.load)
}

/// Groups the curves over seeds and summarises each group's latency per
/// load; points without a measured delivery stay out of the summary.
fn seed_groups(curves: &[Curve]) -> Vec<SeedGroup> {
    let mut groups: Vec<(SeedGroup, Vec<&PointResult>)> = Vec::new();
    for curve in curves {
        let key = curve.spec.key(true, false);
        let i = match groups.iter().position(|(g, _)| g.key == key) {
            Some(i) => i,
            None => {
                let spec = curve.spec.clone();
                let latency = Vec::new();
                groups.push((SeedGroup { key, spec, latency }, Vec::new()));
                groups.len() - 1
            }
        };
        let delivered = curve.series.iter().filter(|p| p.measured_delivered > 0);
        groups[i].1.extend(delivered);
    }
    for (group, points) in &mut groups {
        // A stable sort: each load's points stay in curve order.
        points.sort_by(|a, b| a.spec.load.total_cmp(&b.spec.load));
        for same in points.chunk_by(|a, b| a.spec.load.to_bits() == b.spec.load.to_bits()) {
            let samples: Vec<f64> = same.iter().map(|p| p.avg_latency).collect();
            let x = Interval::of(&samples).expect("a chunk is never empty");
            group.latency.push((same[0].spec.load, x));
        }
    }
    groups.into_iter().map(|(group, _)| group).collect()
}

/// Detects latency crossovers between every pair of seed groups that differ
/// only in scheme, at the loads both sampled where their intervals separate.
/// Groups are visited in report order, loads ascending, so the output order
/// is deterministic.
fn find_crossovers(groups: &[SeedGroup]) -> Vec<Crossover> {
    let keys: Vec<String> = groups.iter().map(|g| g.spec.key(false, false)).collect();
    let mut out = Vec::new();
    for (i, a) in groups.iter().enumerate() {
        for (j, b) in groups.iter().enumerate().skip(i + 1) {
            if keys[i] != keys[j] {
                continue;
            }
            let mut prev = None;
            for (load, la) in &a.latency {
                let Some((_, lb)) = b
                    .latency
                    .iter()
                    .find(|(l, _)| l.to_bits() == load.to_bits())
                else {
                    continue;
                };
                let a_faster = match (la.hi < lb.lo, la.lo > lb.hi) {
                    (true, _) => true,
                    (_, true) => false,
                    _ => continue,
                };
                if prev.is_some_and(|was| was != a_faster) {
                    let (was, now) = if a_faster { (b, a) } else { (a, b) };
                    out.push(Crossover {
                        group: keys[i].clone(),
                        was_faster: was.spec.scheme.canonical().to_string(),
                        now_faster: now.spec.scheme.canonical().to_string(),
                        load: *load,
                    });
                    break;
                }
                prev = Some(a_faster);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;
    use pseudo_circuit::Scheme;

    /// Synthesizes a result without running a simulation.
    fn fake(scheme: &str, load: f64, latency: f64, drained: bool) -> PointResult {
        let spec = CampaignSpec::default();
        let mut point = spec.expand().remove(0);
        point.scheme = Scheme::parse(scheme).unwrap();
        point.load = load;
        PointResult {
            config_hash: format!("{scheme}-{load:?}"),
            git_rev: "rev".into(),
            topology_name: "mesh-8x8".into(),
            traffic_name: format!("uniform@{load:.2}"),
            cycles: 11_000,
            avg_latency: latency,
            p99_latency: (latency * 3.0) as u64,
            avg_hops: 4.0,
            throughput: if drained { load } else { load * 0.7 },
            measured_injected: 1000,
            measured_delivered: if drained { 1000 } else { 900 },
            reusability: 0.4,
            bypass_rate: 0.2,
            energy_pj: 100.0 * load,
            flit_traversals: 5000,
            header_hit_rate: 0.15,
            xbar_locality: 0.3,
            end_to_end_locality: 0.2,
            drained,
            spec: point,
        }
    }

    /// `fake` at another seed.
    fn seeded(seed: u64, scheme: &str, load: f64, latency: f64) -> PointResult {
        let mut result = fake(scheme, load, latency, true);
        result.spec.seed = seed;
        result
    }

    #[test]
    fn merge_groups_curves_and_sorts_by_load() {
        let results = vec![
            fake("baseline", 0.3, 60.0, true),
            fake("baseline", 0.1, 12.0, true),
            fake("evc", 0.1, 14.0, true),
        ];
        let report = CampaignReport::merge("t", "rev", &results);
        assert_eq!(report.curves.len(), 2);
        let loads: Vec<f64> = report.curves[0]
            .series
            .iter()
            .map(|p| p.spec.load)
            .collect();
        assert_eq!(loads, vec![0.1, 0.3]);
    }

    #[test]
    fn saturation_uses_knee_or_drain_failure() {
        let drained = vec![
            fake("pseudo", 0.1, 10.0, true),
            fake("pseudo", 0.2, 20.0, true),
            fake("pseudo", 0.3, 45.0, true),
        ];
        let report = CampaignReport::merge("t", "rev", &drained);
        assert_eq!(report.curves[0].saturation_load, Some(0.3));

        let undrained = vec![
            fake("pseudo", 0.1, 10.0, true),
            fake("pseudo", 0.2, 12.0, false),
        ];
        let report = CampaignReport::merge("t", "rev", &undrained);
        assert_eq!(report.curves[0].saturation_load, Some(0.2));

        let flat = vec![
            fake("pseudo", 0.1, 10.0, true),
            fake("pseudo", 0.2, 11.0, true),
        ];
        let report = CampaignReport::merge("t", "rev", &flat);
        assert_eq!(report.curves[0].saturation_load, None);
    }

    #[test]
    fn a_point_without_measured_packets_does_not_poison_the_knee() {
        // mesh4x4/ur at loads 0.0001, 0.01, 0.05 over a 50-cycle window: the
        // lowest load delivers nothing, so its latency reads 0.0.
        let mut empty = fake("pseudo", 0.0001, 0.0, true);
        empty.measured_injected = 0;
        empty.measured_delivered = 0;
        let results = vec![
            empty.clone(),
            fake("pseudo", 0.01, 18.0, true),
            fake("pseudo", 0.05, 20.0, true),
        ];
        let report = CampaignReport::merge("t", "rev", &results);
        assert_eq!(report.curves[0].saturation_load, None);
        // The knee is measured from the first point that delivered.
        let results = vec![
            empty.clone(),
            fake("pseudo", 0.01, 18.0, true),
            fake("pseudo", 0.05, 60.0, true),
        ];
        let report = CampaignReport::merge("t", "rev", &results);
        assert_eq!(report.curves[0].saturation_load, Some(0.05));
        // No measured point leaves it to the drain test alone.
        let report = CampaignReport::merge("t", "rev", &[empty.clone()]);
        assert_eq!(report.curves[0].saturation_load, None);

        // Out of the group mean, and so out of crossover comparisons.
        let mut late = empty.clone();
        late.spec.seed = 2;
        late.spec.load = 0.01;
        let results = vec![fake("pseudo", 0.01, 18.0, true), late];
        let report = CampaignReport::merge("t", "rev", &results);
        assert_eq!(report.groups.len(), 1);
        let (load, x) = report.groups[0].latency[0];
        assert_eq!((load, x.n, x.mean), (0.01, 1, 18.0));
        let baseline = fake("baseline", 0.0001, 5.0, true);
        let report = CampaignReport::merge("t", "rev", &[empty, baseline]);
        assert!(report.groups[0].latency.is_empty());
        assert!(report.crossovers.is_empty());
    }

    #[test]
    fn interval_is_the_student_t_interval_of_the_mean() {
        assert_eq!(Interval::of(&[]), None);
        let one = Interval::of(&[7.5]).unwrap();
        assert_eq!((one.n, one.mean, one.lo, one.hi), (1, 7.5, 7.5, 7.5));
        // 1..=5: mean 3, s = √2.5, t(0.975, 4) = 2.776.
        let five = Interval::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let half = 2.776 * (2.5f64 / 5.0).sqrt();
        assert_eq!((five.n, five.mean), (5, 3.0));
        assert!((five.lo - (3.0 - half)).abs() < 1e-12 && (five.hi - (3.0 + half)).abs() < 1e-12);
        // Past df = 30 the df = 30 value holds.
        let many: Vec<f64> = (0..40).map(|i| (i % 2) as f64).collect();
        let wide = Interval::of(&many).unwrap();
        let s = (10.0f64 / 39.0).sqrt();
        assert!((wide.hi - 0.5 - 2.042 * s / 40f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn seed_groups_summarise_curves_that_differ_only_in_seed() {
        let results = vec![
            seeded(1, "baseline", 0.1, 10.0),
            seeded(2, "baseline", 0.1, 12.0),
            seeded(1, "baseline", 0.2, 20.0),
            seeded(1, "evc", 0.1, 30.0),
        ];
        let report = CampaignReport::merge("t", "rev", &results);
        assert_eq!(report.curves.len(), 3, "curves stay one per seed");
        assert_eq!(report.groups.len(), 2);
        let base = &report.groups[0];
        assert_eq!(base.key, "mesh8x8/ur/baseline/xy/static/vcs4/buf4/pkt5");
        let (load, x) = base.latency[0];
        assert_eq!((load, x.n, x.mean), (0.1, 2, 11.0));
        // s = √2, so the half-width is t(0.975, 1) · √2 / √2.
        assert!((x.hi - 11.0 - 12.706).abs() < 1e-9, "{x:?}");
        assert_eq!(base.latency[1].1.n, 1);
        let json = report.to_json();
        assert!(json.contains("\"groups\": [\n    {\"key\": \"mesh8x8/ur/baseline/"));
        assert!(json.contains("{\"load\": 0.1, \"n\": 2, \"mean\": 11.0, "));
    }

    #[test]
    fn the_summary_has_one_line_per_seed_group() {
        // Two seeds of two schemes: baseline saturates at 0.2 on seed 1 only
        // (40 > 3 × 10), evc at 0.2 and 0.3.
        let results = vec![
            seeded(1, "baseline", 0.1, 10.0),
            seeded(1, "baseline", 0.2, 40.0),
            seeded(2, "baseline", 0.1, 11.0),
            seeded(2, "baseline", 0.2, 20.0),
            seeded(1, "evc", 0.1, 10.0),
            seeded(1, "evc", 0.2, 35.0),
            seeded(2, "evc", 0.1, 10.0),
            seeded(2, "evc", 0.2, 20.0),
            seeded(2, "evc", 0.3, 31.0),
        ];
        let report = CampaignReport::merge("t", "rev", &results);
        assert_eq!(
            report.render_summary(),
            "campaign t: 4 curve(s) in 2 seed group(s)\n  \
             mesh8x8/ur/baseline/xy/static/vcs4/buf4/pkt5  seeds 2  \
             saturates @ load 0.2 in 1 of 2 seeds\n  \
             mesh8x8/ur/evc/xy/static/vcs4/buf4/pkt5  seeds 2  saturates @ load 0.2..0.3"
        );
        let flat = CampaignReport::merge("t", "rev", &results[2..4]);
        assert!(flat
            .render_summary()
            .ends_with("/pkt5  seeds 1  no saturation observed"));
    }

    #[test]
    fn crossovers_need_separated_intervals() {
        // Three seeds each. At 0.1 pseudo is clearly faster; at 0.2 the
        // intervals overlap; at 0.3 baseline is clearly faster.
        let mut results = Vec::new();
        let mut add = |load: f64, base: [f64; 3], pseudo: [f64; 3]| {
            for seed in 1..=3 {
                let i = seed as usize - 1;
                results.push(seeded(seed, "baseline", load, base[i]));
                results.push(seeded(seed, "pseudo", load, pseudo[i]));
            }
        };
        add(0.1, [20.0, 20.5, 21.0], [10.0, 10.5, 11.0]);
        add(0.2, [20.0, 25.0, 30.0], [25.0, 25.5, 26.0]);
        add(0.3, [30.0, 30.5, 31.0], [40.0, 40.5, 41.0]);
        let report = CampaignReport::merge("t", "rev", &results);
        assert_eq!(report.crossovers.len(), 1);
        let x = &report.crossovers[0];
        assert_eq!(x.group, "mesh8x8/ur/xy/static/vcs4/buf4/pkt5");
        assert_eq!(
            (x.was_faster.as_str(), x.now_faster.as_str(), x.load),
            ("pseudo", "baseline", 0.3)
        );
        // Overlap at 0.3 too: no flip is shown.
        results.retain(|r| r.spec.load != 0.3);
        for (seed, base) in [(1, 30.0), (2, 40.0), (3, 50.0)] {
            results.push(seeded(seed, "baseline", 0.3, base));
            results.push(seeded(seed, "pseudo", 0.3, 40.5));
        }
        assert!(CampaignReport::merge("t", "rev", &results)
            .crossovers
            .is_empty());
    }

    #[test]
    fn crossovers_detect_order_flips_between_schemes() {
        let results = vec![
            fake("baseline", 0.1, 10.0, true),
            fake("baseline", 0.2, 20.0, true),
            fake("baseline", 0.3, 30.0, true),
            fake("evc", 0.1, 12.0, true),
            fake("evc", 0.2, 19.0, true),
            fake("evc", 0.3, 28.0, true),
        ];
        let report = CampaignReport::merge("t", "rev", &results);
        assert_eq!(report.crossovers.len(), 1);
        let x = &report.crossovers[0];
        assert_eq!(
            (x.was_faster.as_str(), x.now_faster.as_str()),
            ("baseline", "evc")
        );
        assert_eq!(x.load, 0.2);

        // Monotone ordering: no crossover.
        let results = vec![
            fake("baseline", 0.1, 10.0, true),
            fake("baseline", 0.2, 20.0, true),
            fake("evc", 0.1, 12.0, true),
            fake("evc", 0.2, 22.0, true),
        ];
        assert!(CampaignReport::merge("t", "rev", &results)
            .crossovers
            .is_empty());
    }

    #[test]
    fn report_json_is_deterministic_and_order_insensitive_after_merge() {
        let a = vec![
            fake("baseline", 0.2, 20.0, true),
            fake("baseline", 0.1, 10.0, true),
            fake("evc", 0.1, 12.0, true),
        ];
        let mut b = a.clone();
        b.swap(0, 1);
        // Same curves regardless of within-curve discovery order.
        let ra = CampaignReport::merge("t", "rev", &a).to_json();
        let rb = CampaignReport::merge("t", "rev", &b).to_json();
        assert_eq!(ra, rb);
        assert!(ra.contains("\"schema\": \"noc-campaign-report/3\""));
        assert!(ra.contains("\"points\": 3"));
        // The document parses back with the crate's own JSON reader.
        assert!(crate::value::parse_json(&ra).is_ok());
    }

    #[test]
    fn empty_report_is_valid_json() {
        let report = CampaignReport::merge("empty", "rev", &[]);
        let json = report.to_json();
        assert!(crate::value::parse_json(&json).is_ok());
        assert!(json.contains("\"points\": 0"));
    }
}
