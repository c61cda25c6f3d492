#![warn(missing_docs)]

//! Express Virtual Channels (Kumar, Peh, Kundu & Jha, ISCA 2007) — the
//! comparison scheme of the pseudo-circuit paper's §VII.B (its Fig. 14).
//!
//! EVC partitions each port's virtual channels into *normal* VCs (NVCs) and
//! *express* VCs (EVCs). A packet with at least `l_max` remaining hops in its
//! current dimension may acquire an EVC spanning an express segment; its
//! flits then *latch through* the intermediate routers — no buffering, no
//! arbitration, absolute switch priority — paying one cycle per intermediate
//! hop instead of a full router pipeline.
//!
//! This implementation models dynamic EVCs with `l_max = 2` (the paper's
//! configuration: 2 EVCs + 2 NVCs per port) on dimension-order-routed
//! mesh-family topologies:
//!
//! - express segments are acquired at VC allocation time when the packet
//!   continues at least two hops in the same direction and an EVC with
//!   downstream credit is free;
//! - at an intermediate router an express flit forwards in its arrival cycle
//!   when the express output VC is available and credited; otherwise it
//!   falls back to hop-by-hop operation (it is buffered and re-arbitrated
//!   like a normal flit, which is how congestion degrades EVC);
//! - non-express packets may only use NVCs — the restriction that starves
//!   concentrated topologies (few express opportunities, half the VCs),
//!   reproducing the paper's observation that EVC can hurt on the CMesh.
//!
//! The router core (pipeline, separable allocators, credit flow) mirrors the
//! baseline of the `pseudo-circuit` crate, built from the same
//! `noc_sim::blocks` primitives.

mod router;

pub use router::{EvcHooks, EvcRouter, EvcRouterFactory};
