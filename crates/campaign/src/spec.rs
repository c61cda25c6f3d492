//! The declarative campaign specification and its deterministic expansion
//! into simulation points.
//!
//! A campaign is a cartesian product over up to ten axes — topology,
//! traffic, scheme, routing, VC allocation, VC count, buffer depth, packet
//! length, offered load, and seed — plus one set of run phases shared by
//! every point. Specs are written in TOML:
//!
//! ```toml
//! name = "fig12-mesh"
//!
//! [phases]
//! warmup = 1000
//! measure = 10000
//! drain = 100000
//!
//! [axes]
//! topology = "mesh8x8"
//! traffic = "ur"
//! scheme = ["baseline", "pseudo+ps+bb"]
//! routing = "xy"
//! load = [0.02, 0.05, 0.1, 0.2, 0.3]
//! seed = 1
//! ```
//!
//! Every axis accepts a scalar (a one-value axis) or an array; omitted axes
//! take the CLI's defaults. Expansion is **deterministic** — nested loops in
//! the fixed axis order topology → traffic → scheme → routing → va → vcs →
//! buffer → packet → load → seed, each axis in spec order — and
//! **duplicate-free** — repeated values within an axis are a parse error, so
//! the cartesian product cannot contain two identical points. Both
//! properties are pinned by property tests (`tests/prop_campaign.rs`).
//!
//! The thirteen keys of a point — the ten axes and the three phases — are
//! named once, in one table with each key's value rule. It reads `[axes]`
//! and `[phases]`, `noc run`'s flags ([`PointSpec::from_flags`]: `noc run`
//! is a spec of one point) and a run record's coordinates, and writes them
//! ([`PointSpec::coordinates`]). So a value is refused by the same rule, in
//! the same words, wherever it is written.

use crate::value::{parse_number, parse_toml, Value};
use crate::Error;
use noc_base::{RoutingPolicy, VaPolicy};
use noc_sim::{NetworkConfig, RouterFactory, RunSpec};
use pseudo_circuit::{EvcRouterFactory, HybridRouterFactory, PcRouterFactory, Scheme};
use std::collections::BTreeMap;
use std::fmt;

/// A router scheme named by a campaign axis or the `noc` CLI: one of the
/// paper's five pseudo-circuit configurations, or a comparison scheme.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SchemeChoice {
    /// A `pseudo-circuit` crate scheme.
    Pc(Scheme),
    /// The Express-Virtual-Channels router.
    Evc,
    /// The profiled-hybrid-switching router.
    Hybrid,
}

/// Every canonical scheme name, in display order — the single vocabulary
/// shared by `--scheme`, campaign `scheme` axes, and `noc list`. Each entry
/// satisfies `SchemeChoice::parse(name).canonical() == name`.
pub const SCHEME_NAMES: &[&str] = &[
    "baseline",
    "pseudo",
    "pseudo+ps",
    "pseudo+bb",
    "pseudo+ps+bb",
    "evc",
    "hybrid",
];

impl SchemeChoice {
    /// Parses a scheme name as accepted by `--scheme` and campaign axes.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] for unknown names.
    pub fn parse(s: &str) -> Result<Self, Error> {
        Ok(match s.to_ascii_lowercase().as_str() {
            "baseline" => SchemeChoice::Pc(Scheme::baseline()),
            "pseudo" => SchemeChoice::Pc(Scheme::pseudo()),
            "pseudo+ps" => SchemeChoice::Pc(Scheme::pseudo_ps()),
            "pseudo+bb" => SchemeChoice::Pc(Scheme::pseudo_bb()),
            "pseudo+ps+bb" => SchemeChoice::Pc(Scheme::pseudo_ps_bb()),
            "evc" => SchemeChoice::Evc,
            "hybrid" => SchemeChoice::Hybrid,
            other => return Err(Error(format!("unknown scheme {other:?}"))),
        })
    }

    /// The canonical lower-case spec name (`parse(canonical()) == self`).
    pub fn canonical(&self) -> &'static str {
        match self {
            SchemeChoice::Pc(s) => match (s.pseudo_circuit, s.speculation, s.buffer_bypass) {
                (false, _, _) => "baseline",
                (true, false, false) => "pseudo",
                (true, true, false) => "pseudo+ps",
                (true, false, true) => "pseudo+bb",
                (true, true, true) => "pseudo+ps+bb",
            },
            SchemeChoice::Evc => "evc",
            SchemeChoice::Hybrid => "hybrid",
        }
    }

    /// The display label stamped into run manifests (`Pseudo+PS+BB`, `EVC`)
    /// — part of the config-hash key, so it must match what `noc run
    /// --manifest` records.
    pub fn label(&self) -> String {
        match self {
            SchemeChoice::Pc(s) => s.to_string(),
            SchemeChoice::Evc => "EVC".to_string(),
            SchemeChoice::Hybrid => "Hybrid".to_string(),
        }
    }

    /// The router factory this scheme names — the one place a scheme name
    /// becomes router code (the `noc` CLI and campaign points both build
    /// through [`crate::build_simulation`], which calls this).
    pub fn factory(&self) -> Box<dyn RouterFactory> {
        match *self {
            SchemeChoice::Pc(scheme) => Box::new(PcRouterFactory::new(scheme)),
            SchemeChoice::Evc => Box::new(EvcRouterFactory),
            SchemeChoice::Hybrid => Box::new(HybridRouterFactory::default()),
        }
    }
}

/// Parses a lower-case routing-policy name (`xy`, `yx`, `o1turn`).
fn parse_routing(s: &str) -> Result<RoutingPolicy, Error> {
    match s {
        "xy" => Ok(RoutingPolicy::Xy),
        "yx" => Ok(RoutingPolicy::Yx),
        "o1turn" => Ok(RoutingPolicy::O1Turn),
        other => Err(Error(format!("unknown routing {other:?}"))),
    }
}

/// Parses a lower-case VC-allocation-policy name (`static`, `dynamic`).
fn parse_va(s: &str) -> Result<VaPolicy, Error> {
    match s {
        "static" => Ok(VaPolicy::Static),
        "dynamic" => Ok(VaPolicy::Dynamic),
        other => Err(Error(format!("unknown VA policy {other:?}"))),
    }
}

/// The canonical spec name of a routing policy.
pub(crate) fn routing_name(r: RoutingPolicy) -> &'static str {
    match r {
        RoutingPolicy::Xy => "xy",
        RoutingPolicy::Yx => "yx",
        RoutingPolicy::O1Turn => "o1turn",
    }
}

/// The canonical spec name of a VC-allocation policy.
pub(crate) fn va_name(v: VaPolicy) -> &'static str {
    match v {
        VaPolicy::Static => "static",
        VaPolicy::Dynamic => "dynamic",
    }
}

/// One fully-specified simulation point: every coordinate an expansion
/// fixes, plus the campaign's shared run phases.
#[derive(Clone, PartialEq, Debug)]
pub struct PointSpec {
    /// Topology spec string (`mesh8x8`, `cmesh4x4`, `mesh<W>x<H>[c<C>]`...).
    pub topology: String,
    /// Traffic spec: synthetic pattern name or benchmark name.
    pub traffic: String,
    /// Router scheme.
    pub scheme: SchemeChoice,
    /// Routing algorithm.
    pub routing: RoutingPolicy,
    /// VC allocation policy.
    pub va: VaPolicy,
    /// Virtual channels per port.
    pub vcs: u8,
    /// Buffer depth per VC.
    pub buffer: u32,
    /// Packet length in flits (synthetic traffic only).
    pub packet: u16,
    /// Offered load in flits/node/cycle (synthetic traffic only).
    pub load: f64,
    /// Experiment seed.
    pub seed: u64,
    /// Warmup cycles.
    pub warmup: u64,
    /// Measurement cycles.
    pub measure: u64,
    /// Drain-limit cycles.
    pub drain: u64,
}

impl Default for PointSpec {
    /// The `noc run` defaults — also what omitted campaign axes and phases
    /// take.
    fn default() -> Self {
        Self {
            topology: "mesh8x8".into(),
            traffic: "ur".into(),
            scheme: SchemeChoice::Pc(Scheme::pseudo_ps_bb()),
            routing: RoutingPolicy::Xy,
            va: VaPolicy::Static,
            vcs: 4,
            buffer: 4,
            packet: 5,
            load: 0.10,
            seed: 1,
            warmup: 1_000,
            measure: 10_000,
            drain: 100_000,
        }
    }
}

impl PointSpec {
    /// The network parameters of this point.
    pub fn network_config(&self) -> NetworkConfig {
        NetworkConfig {
            vcs_per_port: self.vcs,
            buffer_depth: self.buffer,
            routing: self.routing,
            va_policy: self.va,
        }
    }

    /// The run phases of this point.
    pub fn run_spec(&self) -> RunSpec {
        RunSpec::new(self.warmup, self.measure, self.drain)
    }

    /// The point's coordinates other than load, `/`-separated, with the
    /// scheme and the seed only when asked for — the one key format of the
    /// merged report. `key(true, true)` is the curve key (points sharing it
    /// form one latency–throughput curve), `key(true, false)` the seed-group
    /// key (curves sharing it are one configuration over seeds), and
    /// `key(false, false)` the crossover key (groups sharing it differ only in
    /// scheme).
    pub fn key(&self, scheme: bool, seed: bool) -> String {
        let scheme = scheme.then(|| format!("{}/", self.scheme.canonical()));
        let seed = seed.then(|| format!("/seed{}", self.seed));
        format!(
            "{}/{}/{}{}/{}/vcs{}/buf{}/pkt{}{}",
            self.topology,
            self.traffic,
            scheme.unwrap_or_default(),
            routing_name(self.routing),
            va_name(self.va),
            self.vcs,
            self.buffer,
            self.packet,
            seed.unwrap_or_default()
        )
    }

    /// The point's value under each of its keys, in the order the run record
    /// writes them: the axes in expansion order, then the phases.
    pub fn coordinates(&self) -> [(&'static str, Value); 13] {
        KEYS.map(|key| (key.name, (key.get)(self)))
    }

    /// The point `noc run`'s flags name, each `--key value` given as `(key,
    /// value)`: a spec of one point. A value is read as `key = value` is in a
    /// spec, a number if it parses as one and else a string, so a name needs
    /// no quotes. Keys not given take the defaults, and the point is expanded
    /// like a campaign's, so its topology and traffic are lower-cased.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] for a key given twice or that is not a key of a
    /// point, and for a value outside its key's rule: the rule's words in a
    /// spec, after `--key:`.
    pub fn from_flags(flags: &[(&str, &str)]) -> Result<Self, Error> {
        let mut values = Vec::with_capacity(flags.len());
        for (i, &(name, text)) in flags.iter().enumerate() {
            if flags[..i].iter().any(|&(seen, _)| seen == name) {
                return Err(Error(format!("--{name} is given twice")));
            }
            let key = KEYS.iter().find(|key| key.name == name);
            let key = key.ok_or_else(|| Error(format!("--{name} is not a point key")));
            values.push((key?, parse_number(text).unwrap_or(Value::Str(text.into()))));
        }
        one_point(values.iter().map(|(key, value)| (*key, value)), "--")
    }

    /// The point a run record's coordinates name, read like
    /// [`PointSpec::from_flags`]; the record must hold every key.
    pub(crate) fn from_record(record: &BTreeMap<String, Value>) -> Result<Self, Error> {
        let values = KEYS
            .iter()
            .map(|key| match record.get(key.name) {
                Some(value) => Ok((key, value)),
                None => Err(Error(format!("point result: missing {:?}", key.name))),
            })
            .collect::<Result<Vec<_>, _>>()?;
        one_point(values, "point result: ")
    }
}

/// One key of a point: a campaign axis or run phase, a `noc run` flag and a
/// coordinate of the run record.
#[derive(Clone, Copy)]
struct Key {
    name: &'static str,
    /// A run phase (`[phases]`, one value shared by every point) rather than
    /// an axis (`[axes]`).
    phase: bool,
    /// The key's value in a point, as the run record writes it.
    get: fn(&PointSpec) -> Value,
    /// Reads the key's values into a spec, or refuses them with the text of
    /// the key's rule.
    read: fn(&mut CampaignSpec, &[Value]) -> Result<(), String>,
}

/// The keys of a point, each named once, in record order: the axes in
/// expansion order, then the phases (one value each: `CampaignSpec::set`
/// refuses an array).
#[rustfmt::skip]
static KEYS: [Key; 13] = [
    Key { name: "topology", phase: false, get: |p| Value::Str(p.topology.clone()),
          read: |s, v| strings(v).map(|v| s.axes.topology = v) },
    Key { name: "traffic", phase: false, get: |p| Value::Str(p.traffic.clone()),
          read: |s, v| strings(v).map(|v| s.axes.traffic = v) },
    Key { name: "scheme", phase: false, get: |p| Value::Str(p.scheme.canonical().into()),
          read: |s, v| names(v, SchemeChoice::parse).map(|v| s.axes.scheme = v) },
    Key { name: "routing", phase: false, get: |p| Value::Str(routing_name(p.routing).into()),
          read: |s, v| names(v, parse_routing).map(|v| s.axes.routing = v) },
    Key { name: "va", phase: false, get: |p| Value::Str(va_name(p.va).into()),
          read: |s, v| names(v, parse_va).map(|v| s.axes.va = v) },
    Key { name: "vcs", phase: false, get: |p| Value::Int(p.vcs.into()),
          read: |s, v| ints(v, 1, u8::MAX.into()).map(|v| s.axes.vcs = v) },
    Key { name: "buffer", phase: false, get: |p| Value::Int(p.buffer.into()),
          read: |s, v| ints(v, 1, u32::MAX.into()).map(|v| s.axes.buffer = v) },
    Key { name: "packet", phase: false, get: |p| Value::Int(p.packet.into()),
          read: |s, v| ints(v, 1, u16::MAX.into()).map(|v| s.axes.packet = v) },
    Key { name: "load", phase: false, get: |p| Value::Float(p.load),
          read: |s, v| loads(v).map(|v| s.axes.load = v) },
    Key { name: "seed", phase: false, get: |p| Value::Int(p.seed.into()),
          read: |s, v| ints(v, 0, u64::MAX).map(|v| s.axes.seed = v) },
    Key { name: "warmup", phase: true, get: |p| Value::Int(p.warmup.into()),
          read: |s, v| ints(v, 0, u64::MAX).map(|v| s.warmup = v[0]) },
    Key { name: "measure", phase: true, get: |p| Value::Int(p.measure.into()),
          read: |s, v| ints(v, 0, u64::MAX).map(|v| s.measure = v[0]) },
    Key { name: "drain", phase: true, get: |p| Value::Int(p.drain.into()),
          read: |s, v| ints(v, 0, u64::MAX).map(|v| s.drain = v[0]) },
];

/// The one point `values` name: a spec whose keys each take one value, as a
/// phase does (keys not given keep the defaults), expanded like any other.
fn one_point<'a>(
    values: impl IntoIterator<Item = (&'a Key, &'a Value)>,
    context: &str,
) -> Result<PointSpec, Error> {
    let mut spec = CampaignSpec::default();
    for (k, value) in values {
        spec.set(&Key { phase: true, ..*k }, value, context)?;
    }
    Ok(spec.expand().swap_remove(0))
}

impl fmt::Display for PointSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} load{:?}", self.key(true, true), self.load)
    }
}

/// The per-axis value lists a campaign sweeps, in spec order.
#[derive(Clone, PartialEq, Debug)]
pub struct Axes {
    /// Topology spec strings.
    pub topology: Vec<String>,
    /// Traffic names.
    pub traffic: Vec<String>,
    /// Router schemes.
    pub scheme: Vec<SchemeChoice>,
    /// Routing policies.
    pub routing: Vec<RoutingPolicy>,
    /// VC-allocation policies.
    pub va: Vec<VaPolicy>,
    /// VC counts per port.
    pub vcs: Vec<u8>,
    /// Buffer depths per VC.
    pub buffer: Vec<u32>,
    /// Packet lengths in flits.
    pub packet: Vec<u16>,
    /// Offered loads.
    pub load: Vec<f64>,
    /// Experiment seeds.
    pub seed: Vec<u64>,
}

impl Default for Axes {
    /// One-value axes at the [`PointSpec`] defaults.
    fn default() -> Self {
        let p = PointSpec::default();
        Self {
            topology: vec![p.topology],
            traffic: vec![p.traffic],
            scheme: vec![p.scheme],
            routing: vec![p.routing],
            va: vec![p.va],
            vcs: vec![p.vcs],
            buffer: vec![p.buffer],
            packet: vec![p.packet],
            load: vec![p.load],
            seed: vec![p.seed],
        }
    }
}

/// The most points a spec may expand to. The expansion is materialised (and
/// every point prepared) before anything runs, so a spec past this is refused
/// where it is parsed.
pub(crate) const MAX_POINTS: usize = 1 << 20;

/// A parsed, validated campaign specification.
#[derive(Clone, PartialEq, Debug)]
pub struct CampaignSpec {
    /// Campaign name (report header; defaults to `"campaign"`).
    pub name: String,
    /// Warmup cycles for every point.
    pub warmup: u64,
    /// Measurement cycles for every point.
    pub measure: u64,
    /// Drain-limit cycles for every point.
    pub drain: u64,
    /// The swept axes.
    pub axes: Axes,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        let p = PointSpec::default();
        Self {
            name: "campaign".into(),
            warmup: p.warmup,
            measure: p.measure,
            drain: p.drain,
            axes: Axes::default(),
        }
    }
}

impl CampaignSpec {
    /// Parses a spec from TOML text.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] for syntax errors, unknown keys or axes,
    /// wrongly-typed values, duplicate axis values, or empty axes.
    pub fn parse_toml_str(text: &str) -> Result<Self, Error> {
        let table = parse_toml(text).map_err(|e| Error(format!("spec: {e}")))?;
        Self::from_table(&table)
    }

    /// Parses a TOML spec file.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] for unreadable files or any parse failure.
    pub fn load(path: &std::path::Path) -> Result<Self, Error> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Error(format!("cannot read spec {}: {e}", path.display())))?;
        Self::parse_toml_str(&text)
    }

    fn from_table(table: &BTreeMap<String, Value>) -> Result<Self, Error> {
        for key in table.keys() {
            if !matches!(key.as_str(), "name" | "phases" | "axes") {
                return Err(Error(format!(
                    "spec: unknown top-level key {key:?} (expected name, [phases], [axes])"
                )));
            }
        }
        let mut spec = CampaignSpec::default();
        if let Some(name) = table.get("name") {
            spec.name = name
                .as_str()
                .ok_or_else(|| Error("spec: name must be a string".into()))?
                .to_string();
        }
        for (section, phase) in [("phases", true), ("axes", false)] {
            let Some(entries) = table.get(section) else {
                continue;
            };
            let entries = entries
                .as_table()
                .ok_or_else(|| Error(format!("spec: [{section}] must be a table")))?;
            let keys = KEYS.iter().filter(|key| key.phase == phase);
            for (name, value) in entries {
                let Some(key) = keys.clone().find(|key| key.name == *name) else {
                    let known: Vec<&str> = keys.map(|key| key.name).collect();
                    let what = if phase { "phases key" } else { "axis" };
                    let known = known.join(", ");
                    return Err(Error(format!("spec: unknown {what} {name:?} ({known})")));
                };
                spec.set(key, value, &format!("spec: {section}."))?;
            }
        }
        match spec.num_points() {
            n if n <= MAX_POINTS => Ok(spec),
            n => {
                let count = match n {
                    usize::MAX => format!("more than {n}"),
                    n => n.to_string(),
                };
                Err(Error(format!(
                    "spec: the axes expand to {count} points, at most {MAX_POINTS} are supported"
                )))
            }
        }
    }

    /// Reads `value` as `key`'s values into the spec: a scalar or an array,
    /// but one value for a phase. An error starts with `{context}{key}:` and
    /// gives the key's rule.
    fn set(&mut self, key: &Key, value: &Value, context: &str) -> Result<(), Error> {
        let read = match value {
            Value::Array(_) if key.phase => Err("takes one value, not an array".into()),
            _ => (key.read)(self, value.as_array().as_slice()),
        };
        read.map_err(|rule| Error(format!("{context}{}: {rule}", key.name)))
    }

    /// Expands the spec into its full point set: the cartesian product of
    /// all axes, in the fixed axis order documented on this module, with the
    /// shared phases attached to every point. Deterministic and
    /// duplicate-free by construction.
    pub fn expand(&self) -> Vec<PointSpec> {
        let a = &self.axes;
        let mut points = Vec::with_capacity(self.num_points().min(MAX_POINTS));
        for topology in &a.topology {
            for traffic in &a.traffic {
                for &scheme in &a.scheme {
                    for &routing in &a.routing {
                        for &va in &a.va {
                            for &vcs in &a.vcs {
                                for &buffer in &a.buffer {
                                    for &packet in &a.packet {
                                        for &load in &a.load {
                                            for &seed in &a.seed {
                                                points.push(PointSpec {
                                                    topology: topology.to_ascii_lowercase(),
                                                    traffic: traffic.to_ascii_lowercase(),
                                                    scheme,
                                                    routing,
                                                    va,
                                                    vcs,
                                                    buffer,
                                                    packet,
                                                    load,
                                                    seed,
                                                    warmup: self.warmup,
                                                    measure: self.measure,
                                                    drain: self.drain,
                                                });
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        points
    }

    /// The size of the expansion (product of axis lengths; `usize::MAX`
    /// when the product overflows — a parsed spec is at most
    /// [`MAX_POINTS`]).
    pub fn num_points(&self) -> usize {
        let a = &self.axes;
        [
            a.topology.len(),
            a.traffic.len(),
            a.scheme.len(),
            a.routing.len(),
            a.va.len(),
            a.vcs.len(),
            a.buffer.len(),
            a.packet.len(),
            a.load.len(),
            a.seed.len(),
        ]
        .into_iter()
        .try_fold(1usize, usize::checked_mul)
        .unwrap_or(usize::MAX)
    }
}

// The value rules of the keys. Each refuses a value with one text, which
// `CampaignSpec::set` puts after the key's name, and refuses an empty list or
// a value given twice: an axis of either would expand to no point, or to a
// point twice.

fn distinct<T: PartialEq + fmt::Debug>(values: Vec<T>) -> Result<Vec<T>, String> {
    if values.is_empty() {
        return Err("is empty".into());
    }
    match values
        .iter()
        .enumerate()
        .find(|&(i, v)| values[..i].contains(v))
    {
        Some((_, v)) => Err(format!("repeats value {v:?} (axes must be duplicate-free)")),
        None => Ok(values),
    }
}

/// Strings, lower-cased: names are not case-sensitive.
fn strings(values: &[Value]) -> Result<Vec<String>, String> {
    let strings = values.iter().map(|v| {
        v.as_str()
            .map(str::to_ascii_lowercase)
            .ok_or_else(|| format!("values must be strings, got {v}"))
    });
    distinct(strings.collect::<Result<_, _>>()?)
}

/// Strings, each a name of `parse`'s vocabulary. A vocabulary has one name
/// per value, so distinct strings are distinct values.
fn names<T>(values: &[Value], parse: fn(&str) -> Result<T, Error>) -> Result<Vec<T>, String> {
    strings(values)?
        .iter()
        .map(|s| parse(s).map_err(|e| e.0))
        .collect()
}

/// Integers in `[min, max]`, where `max` fits `T`.
fn ints<T>(values: &[Value], min: u64, max: u64) -> Result<Vec<T>, String>
where
    T: TryFrom<u64> + PartialEq + fmt::Debug,
{
    let ints = values.iter().map(|v| {
        v.as_u64()
            .filter(|n| (min..=max).contains(n))
            .and_then(|n| T::try_from(n).ok())
            .ok_or_else(|| format!("values must be integers in [{min}, {max}], got {v}"))
    });
    distinct(ints.collect::<Result<_, _>>()?)
}

/// Loads, in (0, 1]: there `==` is bit equality (no NaN, no -0.0).
fn loads(values: &[Value]) -> Result<Vec<f64>, String> {
    let loads = values.iter().map(|v| {
        v.as_f64()
            .filter(|l| *l > 0.0 && *l <= 1.0)
            .ok_or_else(|| format!("values must be in (0, 1], got {v}"))
    });
    distinct(loads.collect::<Result<_, _>>()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "\
name = \"t\"

[phases]
warmup = 10
measure = 20
drain = 30

[axes]
topology = \"mesh2x2\"
scheme = [\"baseline\", \"evc\"]
load = [0.05, 0.1]
";

    #[test]
    fn toml_spec_parses_with_defaults() {
        let spec = CampaignSpec::parse_toml_str(SPEC).unwrap();
        assert_eq!(spec.name, "t");
        assert_eq!((spec.warmup, spec.measure, spec.drain), (10, 20, 30));
        assert_eq!(spec.axes.topology, vec!["mesh2x2"]);
        assert_eq!(spec.axes.scheme.len(), 2);
        assert_eq!(spec.axes.traffic, vec!["ur"], "omitted axes default");
        assert_eq!(spec.num_points(), 4);
    }

    #[test]
    fn expansion_order_is_fixed_and_complete() {
        let spec = CampaignSpec::parse_toml_str(SPEC).unwrap();
        let points = spec.expand();
        assert_eq!(points.len(), 4);
        // scheme is an outer loop relative to load.
        assert_eq!(points[0].scheme.canonical(), "baseline");
        assert_eq!(points[0].load, 0.05);
        assert_eq!(points[1].load, 0.1);
        assert_eq!(points[2].scheme.canonical(), "evc");
        assert_eq!(points[0].warmup, 10);
        assert_eq!(points[0].key(true, true), points[1].key(true, true));
        assert_ne!(points[0].key(true, true), points[2].key(true, true));
        assert_eq!(
            points[0].key(true, true),
            "mesh2x2/ur/baseline/xy/static/vcs4/buf4/pkt5/seed1"
        );
        assert_eq!(
            points[0].key(true, false),
            "mesh2x2/ur/baseline/xy/static/vcs4/buf4/pkt5"
        );
        assert_eq!(points[0].key(false, false), points[2].key(false, false));
        assert_eq!(
            points[0].key(false, false),
            "mesh2x2/ur/xy/static/vcs4/buf4/pkt5"
        );
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        let cases: &[(&str, &str)] = &[
            ("nonsense = 1\n", "unknown top-level"),
            ("[axes]\nwidgets = 3\n", "unknown axis"),
            ("[axes]\nload = [0.1, 0.1]\n", "duplicate-free"),
            ("[axes]\nload = []\n", "empty"),
            ("[axes]\nload = [1.5]\n", "(0, 1]"),
            ("[axes]\nscheme = \"warp\"\n", "unknown scheme"),
            // Not in the vocabulary table, so no second name for pseudo+ps+bb.
            ("[axes]\nscheme = \"full\"\n", "unknown scheme \"full\""),
            ("[axes]\nrouting = \"zigzag\"\n", "unknown routing"),
            ("[axes]\nva = \"psychic\"\n", "unknown VA"),
            ("[axes]\nvcs = 0\n", "[1, 255]"),
            ("[axes]\nvcs = \"four\"\n", "integers"),
            ("[phases]\nmidgame = 5\n", "unknown phases"),
            (
                "[axes]\ntopology = [\"mesh2x2\", \"MESH2x2\"]\n",
                "duplicate-free",
            ),
        ];
        for (text, needle) in cases {
            let err = CampaignSpec::parse_toml_str(text).expect_err(text);
            assert!(err.0.contains(needle), "{text:?} -> {err}");
        }
    }

    #[test]
    fn oversized_specs_are_refused_at_parse_time() {
        // Six axes of 64-100 values: a 3 KB spec whose expansion used to be
        // pre-allocated in full (66 TB) and abort the process.
        let list = |n: u64, scale: f64| {
            let values: Vec<String> = (1..=n).map(|v| (v as f64 * scale).to_string()).collect();
            values.join(", ")
        };
        let text = format!(
            "[axes]\nvcs = [{}]\nbuffer = [{}]\npacket = [{}]\nseed = [{}]\n\
             load = [{}]\ntopology = [{}]\n",
            list(64, 1.0),
            list(100, 1.0),
            list(100, 1.0),
            list(100, 1.0),
            list(100, 0.01),
            (1..=100)
                .map(|n| format!("\"ring{}\"", n + 1))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let err = CampaignSpec::parse_toml_str(&text).unwrap_err().0;
        assert_eq!(
            err,
            "spec: the axes expand to 640000000000 points, at most 1048576 are supported"
        );
        // Right at the limit is fine; one axis value past it is not.
        let at = |seeds: u64| {
            CampaignSpec::parse_toml_str(&format!(
                "[axes]\nbuffer = [{}]\nseed = [{}]\n",
                list(1024, 1.0),
                list(seeds, 1.0)
            ))
        };
        assert_eq!(at(1024).unwrap().num_points(), MAX_POINTS);
        assert!(at(1025).unwrap_err().0.contains("1049600 points"));
    }

    #[test]
    fn seeds_span_the_u64_range() {
        let toml = CampaignSpec::parse_toml_str("[axes]\nseed = [0, 18446744073709551615]\n");
        assert_eq!(toml.unwrap().axes.seed, vec![0, u64::MAX]);
        for (err, needle) in [
            (
                CampaignSpec::parse_toml_str("[axes]\nseed = [18446744073709551616]\n"),
                "cannot parse value \"18446744073709551616\"",
            ),
            (
                CampaignSpec::parse_toml_str("[axes]\nseed = -1\n"),
                "integers in [0, 18446744073709551615], got -1",
            ),
        ] {
            let err = err.unwrap_err().0;
            assert!(err.contains(needle) && !err.contains('\n'), "{err}");
        }
    }

    #[test]
    fn scheme_choice_roundtrips_and_labels() {
        // SCHEME_NAMES is the one shared vocabulary table: every entry must
        // round-trip through parse/canonical, and the variants must cover it
        // exactly (a new scheme that misses the table fails here).
        for &name in SCHEME_NAMES {
            let choice = SchemeChoice::parse(name).unwrap();
            assert_eq!(choice.canonical(), name);
            assert_eq!(SchemeChoice::parse(choice.canonical()).unwrap(), choice);
        }
        assert!(SCHEME_NAMES.contains(&SchemeChoice::Evc.canonical()));
        assert!(SCHEME_NAMES.contains(&SchemeChoice::Hybrid.canonical()));
        assert_eq!(
            SchemeChoice::Pc(Scheme::pseudo_ps_bb()).label(),
            "Pseudo+PS+BB"
        );
        assert_eq!(SchemeChoice::Evc.label(), "EVC");
        assert_eq!(SchemeChoice::Hybrid.label(), "Hybrid");
    }
}
