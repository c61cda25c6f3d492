//! Compatibility path for the repository benchmark, which links
//! `noc_evc::EvcRouterFactory`: the EVC comparator is the `evc` module of the
//! `pseudo-circuit` crate, built like every scheme by
//! `PcRouterFactory::new(Scheme::evc())`. No workspace member depends on this
//! crate; the benchmark change that builds EVC that way deletes it, and the
//! forward it re-exports (ROADMAP.md, item 1).

pub use pseudo_circuit::EvcRouterFactory;
