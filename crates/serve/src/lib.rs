//! flm-serve: refutation-as-a-service over framed FLMC-RPC.
//!
//! A small, std-only network subsystem that serves the repository's
//! impossibility refutations over TCP. Requests name a theorem family, a
//! protocol (via [`flm_protocols::resolve`]), and a graph; responses carry
//! portable `FLMC` certificate bytes that pipe straight into `flm-audit`.
//!
//! The layering, bottom to top:
//!
//! * [`sys`] — a thin readiness shim over Linux `epoll`, built on
//!   [`std::os::fd`] with no external crates; the only module allowed to
//!   contain `unsafe` (the crate is `deny(unsafe_code)` elsewhere).
//! * [`frame`] — the `FLMR` length-prefixed frame: magic, version, kind
//!   byte, `u32` body length. Bounded reads; hostile prefixes cannot force
//!   allocation, and bodies past the `u32` prefix are a typed encode error,
//!   never a truncated length.
//! * [`rpc`] — request/response bodies encoded with [`flm_sim::wire`], the
//!   same primitives the certificate codec uses.
//! * [`query`] — the theorem-family grammar, the canonical query key, and
//!   the single refutation code path shared with `regen --refute`.
//! * [`audit`] — the `flm-audit` verdict logic as a library, so the Audit
//!   RPC and the binary cannot drift.
//! * [`store`] — the answer cache: canonical query key → certificate
//!   bytes, with an always-on memory tier and an optional content-addressed
//!   disk tier (one `FLMC` file per key, written atomically, verified on
//!   load, quarantined on damage) whose warm hits survive restarts.
//! * `front` (private) — the front end both reactors share: listener and
//!   listen backlog, accept and connection shedding, incremental framing
//!   with typed answers to hostile bytes, in-order pipelined responses,
//!   flush with epoll-interest re-derivation, idle sweep, and the run loop
//!   with its shutdown drain. A reactor plugs in as a `Service`.
//! * [`server`] — the serve plane's `Service`: per-connection request
//!   budgets, inline or worker-pool dispatch, and typed request shedding —
//!   a saturated server answers [`rpc::Response::Overloaded`] instead of
//!   dropping the socket.
//! * [`shard`] — the cluster topology: a [`shard::ShardMap`] with a
//!   canonical wire encoding, rendezvous ownership over canonical query
//!   keys, and the store-rebalance walk that ships misplaced certificates
//!   to their owners.
//! * [`router`] — the sharded front's `Service`: routes each keyed
//!   request to its owning shard over persistent pipelined backend
//!   connections, fans Stats out into a cluster view, and degrades a dead
//!   shard to typed [`rpc::Response::ShardDown`] answers for that key
//!   range only.
//! * [`client`] / [`loadgen`] — the blocking client and the deterministic
//!   load generator behind `flm-client` and `BENCH_serve.json`.
//!
//! A certificate one request paid to compute is a byte lookup for every
//! later request asking the same canonical query in this process, and,
//! with a store directory configured, in a later one. Sharding extends the
//! same economics across machines: rendezvous hashing gives each canonical
//! query exactly one owner, so the cluster simulates each universe once.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod client;
pub mod frame;
mod front;
pub mod loadgen;
pub mod query;
pub mod router;
pub mod rpc;
pub mod server;
pub mod shard;
pub mod store;
#[allow(unsafe_code)]
pub mod sys;
