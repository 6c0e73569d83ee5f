//! The structure-of-arrays run kernel behind [`crate::System`].
//!
//! [`run`] is the single tick loop every discrete-system execution goes
//! through (strict and contained). All per-run state lives in flat,
//! time-major slabs rather than per-edge / per-node nested vectors:
//!
//! * `traces` — one `Option<Payload>` slot per directed edge per tick,
//!   indexed `t * E + e` in `Graph::directed_edges` (lex) order;
//! * `delivered` — a per-tick bitmask over edge indices, so refilling the
//!   inboxes skips the payload slab entirely for silent edges;
//! * `snap_bytes` / `snap_ends` — an arena of device snapshots with
//!   cumulative end offsets, one entry per node per tick;
//! * the port tables — flat in/out edge-index arrays with a per-node
//!   prefix-sum offset table, and one flat inbox buffer, allocated per run.
//!
//! The pre-existing `System::run_reference` map-per-delivery loop is
//! untouched and remains the differential oracle for this kernel.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use flm_graph::{Graph, NodeId};

use crate::behavior::{DeviceMisbehavior, MisbehaviorKind, NodeBehavior, SystemBehavior};
use crate::device::{snapshot, Payload};
use crate::system::{RunPolicy, Slot, SystemError};
use crate::Tick;

fn words_for(e_count: usize) -> usize {
    e_count.div_ceil(64)
}

/// The SoA tick loop.
///
/// Byte-identical to the pre-SoA loop on every observable: trace order,
/// snapshot bytes, misbehavior ordering (tick-major, node-ascending),
/// quarantine semantics, and every error path.
pub(crate) fn run(
    graph: &Arc<Graph>,
    slots: &mut [Option<Slot>],
    horizon: u32,
    policy: Option<&RunPolicy>,
) -> Result<SystemBehavior, SystemError> {
    let n = graph.node_count();
    for v in graph.nodes() {
        if slots[v.index()].is_none() {
            return Err(SystemError::Unassigned { node: v });
        }
    }
    if policy.is_some() {
        crate::system::install_quiet_panic_hook();
    }
    // Port resolution: every port of every node is resolved to its receive
    // and send edge index (lex position in `directed_edges`) once, into
    // flat arrays indexed by `port_off[v] + p`. Resolution can only fail
    // for a wiring that is not a bijection onto the node's neighbors,
    // which `assign`/`assign_wired` already reject — the error path keeps
    // that invariant structural for slots assembled some other way.
    let edge_list = graph.directed_edges();
    let e_count = edge_list.len();
    let words = words_for(e_count);
    let mut port_off: Vec<u32> = Vec::with_capacity(n + 1);
    port_off.push(0);
    let mut in_edges: Vec<u32> = Vec::with_capacity(e_count);
    let mut out_edges: Vec<u32> = Vec::with_capacity(e_count);
    for v in graph.nodes() {
        let slot = slots[v.index()]
            .as_ref()
            .expect("run is only reached after every node is assigned");
        for &w in slot.wiring() {
            let bad_wire = |_| SystemError::BadWiring {
                node: v,
                reason: format!("port wired to {w}, which is not a neighbor of {v}"),
            };
            in_edges.push(edge_list.binary_search(&(w, v)).map_err(bad_wire)? as u32);
            out_edges.push(edge_list.binary_search(&(v, w)).map_err(bad_wire)? as u32);
        }
        port_off.push(in_edges.len() as u32);
    }
    let mut inbox: Vec<Option<Payload>> = vec![None; in_edges.len()];
    let mut quarantined = vec![false; n];

    // Time-major slabs; outputs, so always freshly allocated.
    let mut traces: Vec<Option<Payload>> = Vec::with_capacity(horizon as usize * e_count);
    let mut delivered: Vec<u64> = Vec::with_capacity(horizon as usize * words);
    let mut snap_bytes: Vec<u8> = Vec::new();
    let mut snap_ends: Vec<u32> = Vec::with_capacity(horizon as usize * n);
    let mut misbehavior: Vec<DeviceMisbehavior> = Vec::new();

    for t in 0..horizon {
        let tick = Tick(t);
        // Refill the flat inbox from last tick's slab row. The delivery
        // bitmask keeps silent edges off the payload slab entirely.
        if t > 0 {
            let row = &traces[(t as usize - 1) * e_count..t as usize * e_count];
            let mask = &delivered[(t as usize - 1) * words..t as usize * words];
            for (cell, &e) in inbox.iter_mut().zip(in_edges.iter()) {
                let e = e as usize;
                *cell = if mask[e >> 6] & (1 << (e & 63)) != 0 {
                    row[e].clone()
                } else {
                    None
                };
            }
        }
        // This tick's slab row.
        traces.resize(traces.len() + e_count, None);
        delivered.resize(delivered.len() + words, 0);
        let row = &mut traces[t as usize * e_count..];
        let mask = &mut delivered[t as usize * words..];
        // Step devices and record sends + snapshots.
        for v in graph.nodes() {
            let slot = slots[v.index()]
                .as_mut()
                .expect("run is only reached after every node is assigned");
            let off = port_off[v.index()] as usize;
            let ports = port_off[v.index() + 1] as usize - off;
            let node_inbox = &inbox[off..off + ports];
            let mut incident: Option<MisbehaviorKind> = None;
            let out: Vec<Option<Payload>> = if quarantined[v.index()] {
                vec![None; ports]
            } else {
                let stepped = match policy {
                    None => Ok(slot.device.step(tick, node_inbox)),
                    Some(_) => {
                        let device = &mut slot.device;
                        crate::system::CONTAINING.with(|c| c.set(true));
                        let result =
                            panic::catch_unwind(AssertUnwindSafe(|| device.step(tick, node_inbox)));
                        crate::system::CONTAINING.with(|c| c.set(false));
                        result.map_err(|p| MisbehaviorKind::Panic(crate::system::panic_message(p)))
                    }
                };
                match stepped {
                    Ok(out) if out.len() != ports => {
                        let kind = MisbehaviorKind::PortMismatch {
                            expected: ports,
                            got: out.len(),
                        };
                        if policy.is_none() {
                            return Err(SystemError::PortMismatch {
                                node: v,
                                expected: ports,
                                got: out.len(),
                            });
                        }
                        incident = Some(kind);
                        vec![None; ports]
                    }
                    Ok(out) => {
                        let oversized = policy.and_then(|p| {
                            out.iter().enumerate().find_map(|(port, m)| {
                                m.as_ref()
                                    .filter(|m| m.len() > p.max_payload_bytes)
                                    .map(|m| MisbehaviorKind::OversizedPayload {
                                        port,
                                        len: m.len(),
                                        limit: p.max_payload_bytes,
                                    })
                            })
                        });
                        match oversized {
                            Some(kind) => {
                                incident = Some(kind);
                                vec![None; ports]
                            }
                            None => out,
                        }
                    }
                    Err(kind) => {
                        incident = Some(kind);
                        vec![None; ports]
                    }
                }
            };
            if let Some(kind) = incident {
                misbehavior.push(DeviceMisbehavior {
                    node: v,
                    tick,
                    kind,
                });
                quarantined[v.index()] = true;
            }
            // Sends land in this tick's slab row; `out_edges` was fully
            // resolved before the loop, so every port has an edge by
            // construction.
            for (p, payload) in out.into_iter().enumerate() {
                let e = out_edges[off + p] as usize;
                if payload.is_some() {
                    mask[e >> 6] |= 1 << (e & 63);
                }
                row[e] = payload;
            }
            // A quarantined device is never touched again — its state may
            // be poisoned mid-panic, so the marker stands in for it.
            let snap = if quarantined[v.index()] {
                snapshot::undecided(b"quarantined")
            } else {
                slot.device.snapshot()
            };
            snap_bytes.extend_from_slice(&snap);
            snap_ends.push(snap_bytes.len() as u32);
        }
    }

    // Regroup the time-major slab into the public per-edge traces. The
    // payloads are *moved* (t outer, e inner), so this is pointer traffic,
    // not refcount churn.
    let mut edge_traces: Vec<Vec<Option<Payload>>> = (0..e_count)
        .map(|_| Vec::with_capacity(horizon as usize))
        .collect();
    let mut drained = traces.into_iter();
    for _ in 0..horizon {
        for trace in edge_traces.iter_mut() {
            trace.push(drained.next().expect("slab holds horizon * E entries"));
        }
    }
    // Snapshots: slice the arena back out into per-node, per-tick vectors.
    let mut snaps: Vec<Vec<Vec<u8>>> = vec![Vec::with_capacity(horizon as usize); n];
    let mut prev_end = 0usize;
    for (i, &end) in snap_ends.iter().enumerate() {
        snaps[i % n].push(snap_bytes[prev_end..end as usize].to_vec());
        prev_end = end as usize;
    }

    let nodes = graph
        .nodes()
        .map(|v| {
            let slot = slots[v.index()]
                .as_ref()
                .expect("run is only reached after every node is assigned");
            NodeBehavior {
                device_name: slot.device.name().to_string(),
                input: slot.ctx.input,
                snaps: std::mem::take(&mut snaps[v.index()]),
            }
        })
        .collect();
    // The public edge map is assembled once, after the run; `zip` pairs
    // each directed edge with its dense trace because both follow the
    // `directed_edges` order.
    let edges: std::collections::BTreeMap<(NodeId, NodeId), Vec<Option<Payload>>> =
        edge_list.into_iter().zip(edge_traces).collect();
    Ok(SystemBehavior::new(
        Arc::clone(graph),
        nodes,
        edges,
        horizon,
        misbehavior,
    ))
}
