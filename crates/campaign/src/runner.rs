//! Turning spec strings into live simulator objects and running one point.
//!
//! This module is the single place a [`PointSpec`] is interpreted: its
//! topology and traffic strings are resolved, its values validated, and its
//! simulation built ([`build_simulation`]). The `noc` CLI's `run` subcommand
//! goes through the same function a campaign point does, so a flag and a
//! campaign axis value accept exactly the same vocabulary, are rejected by
//! exactly the same rules, and resolve to exactly the same objects (and
//! therefore the same `config_hash`).

use crate::spec::{routing_name, PointSpec, SchemeChoice};
use crate::Error;
use noc_base::{FlitPool, Mask64, RouterId};
use noc_sim::{config_hash, MetricsConfig, SimReport, Simulation};
use noc_topology::{FlattenedButterfly, HierRing, Mecs, Mesh, Ring, SharedTopology, Topology};
use noc_traffic::{BenchmarkProfile, CmpTraffic, SyntheticPattern, SyntheticTraffic, TrafficModel};
use std::sync::Arc;

/// Every topology spec form, in display order — the single vocabulary
/// shared by `--topology`, campaign `topology` axes, and `noc list`. Names
/// without `<` are concrete presets; the rest are parameterized grammars
/// all resolved by [`build_topology`].
pub const TOPOLOGY_FORMS: &[&str] = &[
    "mesh8x8",
    "cmesh4x4",
    "mecs4x4",
    "fbfly4x4",
    "mesh<W>x<H>[c<C>]",
    "ring<N>[c<C>]",
    "hring<G>x<L>[c<C>]",
];

/// Builds the topology named by a spec string: the four named presets or
/// one of the general forms `mesh<W>x<H>[c<C>]`, `ring<N>[c<C>]`,
/// `hring<G>x<L>[c<C>]` (see [`TOPOLOGY_FORMS`]).
///
/// # Errors
///
/// Returns an [`Error`] for unrecognized specs and for a zero dimension or
/// concentration.
pub fn build_topology(spec: &str) -> Result<SharedTopology, Error> {
    let spec = spec.to_ascii_lowercase();
    match spec.as_str() {
        "mesh8x8" => return Ok(Arc::new(Mesh::new(8, 8, 1))),
        "cmesh4x4" => return Ok(Arc::new(Mesh::new(4, 4, 4))),
        "mecs4x4" => return Ok(Arc::new(Mecs::new(4, 4, 4))),
        "fbfly4x4" => return Ok(Arc::new(FlattenedButterfly::new(4, 4, 4))),
        _ => {}
    }
    if let Some(body) = spec.strip_prefix("hring") {
        let (dims, conc) = split_concentration(body)?;
        let (g, l) = dims
            .split_once('x')
            .ok_or_else(|| Error(format!("bad ring spec {spec:?} (want hring<G>x<L>[c<C>])")))?;
        let (g, l) = (parse_num(g, "groups")?, parse_num(l, "locals")?);
        if g < 2 || l < 2 {
            return Err(Error(format!(
                "bad ring spec {spec:?} (hierarchical rings need >= 2 groups of >= 2 routers)"
            )));
        }
        return Ok(Arc::new(HierRing::new(g, l, conc)));
    }
    if let Some(body) = spec.strip_prefix("ring") {
        let (n, conc) = split_concentration(body)?;
        let n = parse_num::<usize>(n, "ring size")?;
        if n < 2 {
            return Err(Error(format!(
                "bad ring spec {spec:?} (rings need >= 2 routers)"
            )));
        }
        return Ok(Arc::new(Ring::new(n, conc)));
    }
    let body = spec
        .strip_prefix("mesh")
        .ok_or_else(|| Error(format!("unknown topology {spec:?}")))?;
    let (dims, conc) = split_concentration(body)?;
    let (w, h) = dims
        .split_once('x')
        .ok_or_else(|| Error(format!("bad mesh spec {spec:?} (want mesh<W>x<H>[c<C>])")))?;
    let (w, h) = (parse_num(w, "width")?, parse_num(h, "height")?);
    if w == 0 || h == 0 {
        return Err(Error(format!(
            "bad mesh spec {spec:?} (width and height must be at least 1)"
        )));
    }
    Ok(Arc::new(Mesh::new(w, h, conc)))
}

/// Splits an optional `c<C>` concentration suffix off a topology spec body.
fn split_concentration(body: &str) -> Result<(&str, usize), Error> {
    let Some((dims, c)) = body.split_once('c') else {
        return Ok((body, 1));
    };
    match parse_num::<usize>(c, "concentration")? {
        0 => Err(Error("concentration: must be at least 1".into())),
        conc => Ok((dims, conc)),
    }
}

/// Builds the traffic model named by `traffic` for `topo`: a synthetic
/// pattern (driven by `load`, `packet`, `seed`) or a CMP benchmark profile.
///
/// # Errors
///
/// Returns an [`Error`] if the name is neither a synthetic pattern nor a
/// benchmark profile, or if the topology cannot host the pattern or the CMP
/// layout.
pub fn build_traffic(
    traffic: &str,
    load: f64,
    packet: u16,
    seed: u64,
    topo: &SharedTopology,
) -> Result<Box<dyn TrafficModel>, Error> {
    let name = traffic.to_ascii_lowercase();
    let pattern = match name.as_str() {
        "ur" | "uniform" => Some(SyntheticPattern::UniformRandom),
        "bc" | "bitcomp" => Some(SyntheticPattern::BitComplement),
        "bp" | "transpose" => Some(SyntheticPattern::Transpose),
        "tornado" => Some(SyntheticPattern::Tornado),
        "neighbor" => Some(SyntheticPattern::Neighbor),
        _ => None,
    };
    if let Some(pattern) = pattern {
        // Arrange the nodes on the router grid footprint (concentration
        // folded into columns).
        let n = topo.num_nodes();
        if n < 2 {
            return Err(Error(format!(
                "synthetic traffic needs at least two nodes; {} has {n}",
                topo.name()
            )));
        }
        let cols = (1..=n)
            .rev()
            .find(|c| n.is_multiple_of(*c) && *c * *c <= n)
            .unwrap_or(1);
        let (cols, rows) = (n / cols, cols);
        if matches!(pattern, SyntheticPattern::Transpose) && cols != rows {
            return Err(Error("transpose requires a square node grid".into()));
        }
        return Ok(Box::new(SyntheticTraffic::new(
            pattern, cols, rows, packet, load, seed,
        )));
    }
    let profile = BenchmarkProfile::by_name(&name)
        .ok_or_else(|| Error(format!("unknown traffic {name:?} (try `noc list`)")))?;
    let cmp = CmpTraffic::for_topology(topo.as_ref(), *profile, seed)
        .map_err(|e| Error(e.to_string()))?;
    Ok(Box::new(cmp))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, Error> {
    s.parse()
        .map_err(|_| Error(format!("{what}: cannot parse {s:?}")))
}

/// A point whose spec strings have been resolved — topology and traffic
/// build, the display names are known, and the manifest-compatible
/// `config_hash` is computed. Preparing does **not** run anything; it is
/// the cheap step the cache lookup needs. Carries only plain data so
/// prepared points can cross worker threads.
#[derive(Clone, Debug)]
pub struct PreparedPoint {
    /// The point's coordinates.
    pub spec: PointSpec,
    /// The resolved topology display name (`Topology::name`).
    pub topology_name: String,
    /// The resolved traffic display name (`TrafficModel::name`).
    pub traffic_name: String,
    /// The `noc-run-manifest/1` configuration hash of this point — the
    /// cache's content address.
    pub config_hash: String,
}

/// Checks every value of `point` that the constructors downstream would
/// otherwise reject by panicking, against the topology it resolved to — the
/// values come from flags, spec files and campaign axes, and a panic inside
/// a campaign also aborts the whole sweep. [`prepare`] and
/// [`build_simulation`] both call this.
///
/// # Errors
///
/// Returns an [`Error`] naming the field and the rule: VCs, buffer depth and
/// packet length at least 1; at most [`Mask64::WIDTH`] VCs per port and
/// input or output ports per router (the routers keep one-word masks over
/// them); buffers the flit slab can index ([`Simulation::flit_capacity`] at
/// most [`FlitPool::MAX_CAPACITY`]); load in `(0, 1]`; the VC count divisible
/// by the deadlock-class
/// count of the routing policy on this topology; for `evc` a single
/// deadlock class and an even VC count; and run phases whose total fits the
/// 64-bit cycle counter.
pub fn validate(point: &PointSpec, topo: &dyn Topology) -> Result<(), Error> {
    let fail = |message: String| Err(Error(message));
    let (warmup, measure, drain) = (point.warmup, point.measure, point.drain);
    let cycles = warmup
        .checked_add(measure)
        .and_then(|c| c.checked_add(drain));
    if cycles.is_none() {
        return fail(format!(
            "warmup + measure + drain: {warmup} + {measure} + {drain} cycles overflow \
             the 64-bit cycle counter"
        ));
    }
    if point.vcs == 0 {
        return fail("vcs: must be at least 1".into());
    }
    if usize::from(point.vcs) > Mask64::WIDTH {
        return fail(format!(
            "vcs: at most {} per port, got {}",
            Mask64::WIDTH,
            point.vcs
        ));
    }
    let widest = (0..topo.num_routers())
        .map(RouterId::new)
        .map(|r| topo.in_ports(r).max(topo.out_ports(r)))
        .max()
        .unwrap_or(0);
    if widest > Mask64::WIDTH {
        return fail(format!(
            "topology: {} has a router with {widest} ports, at most {} are supported",
            topo.name(),
            Mask64::WIDTH
        ));
    }
    if point.buffer == 0 {
        return fail("buffer: must be at least 1".into());
    }
    let flits = Simulation::flit_capacity(topo, &point.network_config());
    if flits > FlitPool::MAX_CAPACITY as u64 {
        return fail(format!(
            "buffer: {} flits on each of {} VCs make room for {flits} flits in flight on {}, \
             at most {} are supported",
            point.buffer,
            point.vcs,
            topo.name(),
            FlitPool::MAX_CAPACITY
        ));
    }
    if point.packet == 0 {
        return fail("packet: must be at least 1".into());
    }
    if !(point.load > 0.0 && point.load <= 1.0) {
        return fail(format!("load: must be in (0, 1], got {}", point.load));
    }
    let classes = point.routing.num_classes().max(topo.min_classes());
    let on = format!("{} routing on {}", routing_name(point.routing), topo.name());
    if !point.vcs.is_multiple_of(classes) {
        return fail(format!(
            "vcs: {} VCs cannot be split across the {classes} deadlock classes of {on}",
            point.vcs
        ));
    }
    if point.scheme == SchemeChoice::Evc {
        if classes != 1 {
            return fail(format!(
                "scheme: evc needs a single deadlock class (xy or yx routing on a \
                 mesh-family topology), {on} has {classes}"
            ));
        }
        if !point.vcs.is_multiple_of(2) {
            return fail(format!(
                "vcs: evc splits the VCs in half and needs an even count, got {}",
                point.vcs
            ));
        }
    }
    Ok(())
}

/// Resolves a point's topology and traffic strings into live objects,
/// validating the point on the way.
fn resolve(point: &PointSpec) -> Result<(SharedTopology, Box<dyn TrafficModel>), Error> {
    let topo = build_topology(&point.topology)?;
    validate(point, topo.as_ref())?;
    let traffic = build_traffic(&point.traffic, point.load, point.packet, point.seed, &topo)?;
    Ok((topo, traffic))
}

/// Resolves and hashes one point (see [`PreparedPoint`]).
///
/// # Errors
///
/// Returns an [`Error`] when the topology or traffic spec is invalid or a
/// value is out of range for the configuration.
pub fn prepare(point: &PointSpec) -> Result<PreparedPoint, Error> {
    let (topo, traffic) = resolve(point)?;
    let hash = config_hash(
        topo.name(),
        traffic.name(),
        Some(&point.scheme.label()),
        &point.network_config(),
        point.run_spec(),
        point.seed,
    );
    Ok(PreparedPoint {
        spec: point.clone(),
        topology_name: topo.name().to_string(),
        traffic_name: traffic.name().to_string(),
        config_hash: hash,
    })
}

/// Builds the simulation of one point: the single point→[`Simulation`]
/// path, shared by [`run_point`] and `noc run`. The simulation is serial; a
/// caller that wants the sharded engine calls
/// [`Simulation::set_threads`] on the result (it never affects results).
///
/// # Errors
///
/// As [`prepare`].
pub fn build_simulation(point: &PointSpec, metrics: MetricsConfig) -> Result<Simulation, Error> {
    let (topo, traffic) = resolve(point)?;
    Ok(Simulation::with_metrics(
        topo,
        point.network_config(),
        metrics,
        traffic,
        point.scheme.factory().as_ref(),
        point.seed,
    ))
}

/// Runs one prepared point to completion and returns its report.
///
/// The simulation itself always runs **single-threaded**: campaign
/// parallelism is across points (one simulation per worker), which beats
/// intra-simulation sharding for every network small enough to appear in a
/// sweep. Determinism therefore never depends on the campaign's thread
/// budget.
///
/// # Errors
///
/// Returns an [`Error`] when the specs fail to rebuild (they were already
/// validated by [`prepare`], so this is effectively unreachable).
pub fn run_point(prepared: &PreparedPoint) -> Result<SimReport, Error> {
    let mut sim = build_simulation(&prepared.spec, MetricsConfig::off())?;
    Ok(sim.run(prepared.spec.run_spec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;

    fn tiny_point() -> PointSpec {
        let spec = CampaignSpec::parse_toml_str(
            "[phases]\nwarmup = 50\nmeasure = 200\ndrain = 2000\n\
             [axes]\ntopology = \"mesh2x2\"\nload = 0.05\npacket = 2\n",
        )
        .unwrap();
        spec.expand().remove(0)
    }

    #[test]
    fn topology_specs_build() {
        assert_eq!(build_topology("mesh8x8").unwrap().num_routers(), 64);
        assert_eq!(build_topology("CMESH4x4").unwrap().num_nodes(), 64);
        assert_eq!(build_topology("mecs4x4").unwrap().num_nodes(), 64);
        assert_eq!(build_topology("fbfly4x4").unwrap().num_nodes(), 64);
        let custom = build_topology("mesh3x5c2").unwrap();
        assert_eq!(custom.num_routers(), 15);
        assert_eq!(custom.num_nodes(), 30);
        let ring = build_topology("ring9").unwrap();
        assert_eq!((ring.num_routers(), ring.num_nodes()), (9, 9));
        assert_eq!(build_topology("ring8c2").unwrap().num_nodes(), 16);
        let hring = build_topology("hring2x8").unwrap();
        assert_eq!((hring.num_routers(), hring.num_nodes()), (16, 16));
        assert!(build_topology("torus9").is_err());
        assert!(build_topology("ring1").is_err());
        assert!(build_topology("hring1x4").is_err());
        assert!(build_topology("hring8").is_err());
        assert!(build_topology("mesh3by5").is_err());
        // Every concrete entry of the shared vocabulary table builds.
        for form in TOPOLOGY_FORMS.iter().filter(|f| !f.contains('<')) {
            assert!(build_topology(form).is_ok(), "{form}");
        }
    }

    #[test]
    fn traffic_specs_build() {
        let topo = build_topology("mesh4x4c1").unwrap();
        assert!(build_traffic("ur", 0.1, 5, 1, &topo).is_ok());
        let cmesh = build_topology("cmesh4x4").unwrap();
        assert!(build_traffic("lu", 0.1, 5, 1, &cmesh).is_ok());
        assert!(build_traffic("nonesuch", 0.1, 5, 1, &cmesh).is_err());
        // Benchmark traffic on unsupported floorplans errors cleanly.
        let odd = build_topology("mesh3x3c2").unwrap();
        let err = build_traffic("fma3d", 0.1, 5, 1, &odd)
            .map(|_| ())
            .unwrap_err();
        assert!(err.0.contains("concentration"), "{err}");
        let odd_nodes = build_topology("mesh3x3").unwrap();
        assert!(build_traffic("fma3d", 0.1, 5, 1, &odd_nodes).is_err());
        // A one-node network has nobody to send to.
        let lonely = build_topology("mesh1x1").unwrap();
        assert!(build_traffic("ur", 0.1, 5, 1, &lonely).is_err());
    }

    #[test]
    fn prepare_hashes_match_the_run_manifest() {
        // The cache key must be exactly what `noc run --manifest` would
        // stamp for the same configuration.
        let point = tiny_point();
        let prepared = prepare(&point).unwrap();
        let report = run_point(&prepared).unwrap();
        let manifest = noc_sim::RunManifest::capture(
            &report,
            &point.network_config(),
            point.run_spec(),
            point.seed,
            noc_sim::MetricsLevel::Off,
        )
        .with_scheme(point.scheme.label());
        assert_eq!(prepared.config_hash, manifest.config_hash);
        assert_eq!(prepared.topology_name, report.topology);
        assert_eq!(prepared.traffic_name, report.traffic);
    }

    #[test]
    fn run_point_is_deterministic() {
        let prepared = prepare(&tiny_point()).unwrap();
        let a = run_point(&prepared).unwrap();
        let b = run_point(&prepared).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(a.drained);
    }
}
