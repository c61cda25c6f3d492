//! Compatibility path for the repository benchmark, which links
//! `noc_evc::EvcRouterFactory`: the EVC comparator is the `evc` module of the
//! `pseudo-circuit` crate. No workspace member depends on this crate; the
//! benchmark change that imports `pseudo_circuit::EvcRouterFactory` instead
//! deletes it (ROADMAP.md, item 1).

pub use pseudo_circuit::EvcRouterFactory;
