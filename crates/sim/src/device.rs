//! The [`Device`] trait: the paper's primitive "device" made executable.
//!
//! FLM leaves devices entirely abstract; the only properties the proofs use
//! are determinism (a system has exactly one behavior) and the Locality /
//! Fault axioms. Here a device is a deterministic state machine stepped once
//! per tick. Its *behavior* is the sequence of its state snapshots and the
//! message traces on its edges — exactly what the refuters compare.
//!
//! ## Ports, not node ids
//!
//! A device addresses its neighbors through *ports* — indices into the
//! ordered neighbor list of the **base-graph node it was written for**. This
//! is what makes covering installation meaningful: when the same device is
//! installed at a node of a covering graph, port `p` is wired to the lift of
//! the corresponding base edge, so the device cannot tell which graph it
//! inhabits. That indistinguishability is the engine of every proof.
//!
//! ## Decisions are part of the behavior
//!
//! The paper's `CHOOSE` maps node *behaviors* to outputs, so identical
//! behaviors must yield identical choices. We enforce that structurally: a
//! decision is encoded in the state snapshot itself (see [`snapshot`]), and
//! [`crate::behavior::NodeBehavior::decision`] reads it from the recorded
//! trace — never from the live device.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use flm_graph::NodeId;

/// A message payload: canonical bytes (see [`crate::wire`]) behind a
/// cheaply-clonable handle.
///
/// Payloads are immutable once constructed, so the simulator's message plane
/// is zero-copy: recording a payload on an edge trace, delivering it to an
/// inbox next tick, replaying it through a
/// [`crate::replay::ReplayDevice`] masquerade, and copying it into a
/// certificate's chain all clone the same `Arc<[u8]>` — a reference-count
/// bump, never a byte copy. Devices that want to *modify* received bytes
/// copy them out explicitly ([`Payload::to_vec`]) and build a new payload,
/// which keeps mutation visible at the call site.
///
/// Equality, ordering, and hashing are byte-wise, matching the refuters'
/// byte-for-byte behavior comparisons.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Payload(Arc<[u8]>);

impl Payload {
    /// Wraps canonical bytes in a payload.
    pub fn new(bytes: impl Into<Arc<[u8]>>) -> Self {
        Payload(bytes.into())
    }

    /// The payload bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Copies the bytes out for modification; the only way to "mutate" a
    /// payload is to build a new one from the copy.
    #[allow(clippy::wrong_self_convention)]
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.to_vec()
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload(Arc::from(&[][..]))
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload(bytes.into())
    }
}

impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Self {
        Payload(Arc::from(bytes))
    }
}

impl<const N: usize> From<[u8; N]> for Payload {
    fn from(bytes: [u8; N]) -> Self {
        Payload(Arc::from(&bytes[..]))
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(bytes: &[u8; N]) -> Self {
        Payload(Arc::from(&bytes[..]))
    }
}

impl<'a> IntoIterator for &'a Payload {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render as the byte list, like the `Vec<u8>` it replaced, so debug
        // output (and the determinism tests diffing it) stays readable.
        fmt::Debug::fmt(&self.0, f)
    }
}

/// The input assigned to a node (FLM §2: Booleans, reals, or clocks; clocks
/// live in the separate [`crate::clock`] simulator).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Input {
    /// No input (faulty/replay nodes, or problems without inputs).
    #[default]
    None,
    /// A Boolean input (Byzantine/weak agreement, firing-squad stimulus).
    Bool(bool),
    /// A real-valued input (approximate agreement).
    Real(f64),
}

impl Input {
    /// Appends this input to a wire writer (tag byte, then the value).
    ///
    /// Reals are written as raw IEEE-754 bit patterns — not via
    /// [`crate::wire::Writer::f64`] — so that re-encoding a decoded
    /// certificate is byte-identical even for bit patterns (NaN payloads in
    /// hostile certificates) a device would never legitimately produce.
    pub fn encode(self, w: &mut crate::wire::Writer) {
        match self {
            Input::None => {
                w.u8(0);
            }
            Input::Bool(b) => {
                w.u8(1).bool(b);
            }
            Input::Real(r) => {
                w.u8(2).u64(r.to_bits());
            }
        }
    }

    /// Reads an input written by [`Input::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::wire::DecodeError`] on truncation or an unknown tag.
    pub fn decode(r: &mut crate::wire::Reader<'_>) -> Result<Self, crate::wire::DecodeError> {
        match r.u8()? {
            0 => Ok(Input::None),
            1 => Ok(Input::Bool(r.bool()?)),
            2 => Ok(Input::Real(f64::from_bits(r.u64()?))),
            _ => Err(crate::wire::DecodeError),
        }
    }

    /// The Boolean value, if this is a Boolean input.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Input::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The real value, if this is a real input.
    pub fn as_real(self) -> Option<f64> {
        match self {
            Input::Real(r) => Some(r),
            _ => None,
        }
    }
}

impl fmt::Display for Input {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Input::None => write!(f, "-"),
            Input::Bool(b) => write!(f, "{}", u8::from(*b)),
            Input::Real(r) => write!(f, "{r}"),
        }
    }
}

/// A decision read off a node behavior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Chose a Boolean (Byzantine / weak agreement).
    Bool(bool),
    /// Chose a real number (approximate agreement).
    Real(f64),
    /// Entered the FIRE state (Byzantine firing squad).
    Fire,
}

impl Decision {
    /// Appends this decision to a wire writer (tag byte, then the value).
    /// Reals are written as raw bit patterns for the same canonicality
    /// reason as [`Input::encode`].
    pub fn encode(self, w: &mut crate::wire::Writer) {
        match self {
            Decision::Bool(b) => {
                w.u8(0).bool(b);
            }
            Decision::Real(r) => {
                w.u8(1).u64(r.to_bits());
            }
            Decision::Fire => {
                w.u8(2);
            }
        }
    }

    /// Reads a decision written by [`Decision::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::wire::DecodeError`] on truncation or an unknown tag.
    pub fn decode(r: &mut crate::wire::Reader<'_>) -> Result<Self, crate::wire::DecodeError> {
        match r.u8()? {
            0 => Ok(Decision::Bool(r.bool()?)),
            1 => Ok(Decision::Real(f64::from_bits(r.u64()?))),
            2 => Ok(Decision::Fire),
            _ => Err(crate::wire::DecodeError),
        }
    }
}

/// Static context a device receives at initialization.
#[derive(Debug, Clone)]
pub struct NodeCtx {
    /// The base-graph node this device instance was written for.
    pub node: NodeId,
    /// Base-graph neighbor ids, in port order: `ports[p]` is the neighbor
    /// a message sent on port `p` is addressed to (in the base graph).
    pub ports: Vec<NodeId>,
    /// The node's input.
    pub input: Input,
}

impl NodeCtx {
    /// Number of ports (the degree of the node in the base graph).
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// The port connected to base neighbor `v`, if any.
    pub fn port_to(&self, v: NodeId) -> Option<usize> {
        self.ports.iter().position(|&w| w == v)
    }
}

/// A deterministic message-passing state machine.
///
/// ## Contract
///
/// * **Determinism.** Given the same `init` context and the same inbox
///   sequence, a device must produce the same outputs and snapshots. (The
///   model's "a system has exactly one behavior".) Randomized strategies
///   must derive all randomness from explicit seeds fixed at construction.
/// * **Snapshot completeness.** [`Device::snapshot`] must capture every bit
///   of state that can influence future outputs; the refuters treat equal
///   snapshot traces as equal behaviors.
/// * **Port discipline.** `step` receives exactly one `Option<Payload>` per
///   port and must return exactly one per port (`None` = silence; silence
///   is itself observable on the edge).
///
/// Devices are `Send` so that systems can be assembled on one thread and
/// run on a worker thread (the parallel refuters and campaign sweeps).
pub trait Device: Send {
    /// Short human-readable name (`"EIG"`, `"Replay"`, …) used in reports.
    fn name(&self) -> &'static str;

    /// Called once before tick 0 with the node's static context.
    fn init(&mut self, ctx: &NodeCtx);

    /// Advances one tick. `inbox[p]` holds the payload delivered on port
    /// `p` at this tick (sent at the previous tick); the return value's
    /// entry `p` is the payload to send on port `p` this tick.
    fn step(&mut self, t: crate::Tick, inbox: &[Option<Payload>]) -> Vec<Option<Payload>>;

    /// A canonical snapshot of the device's observable state *after* the
    /// current step, with any decision encoded per [`snapshot`].
    fn snapshot(&self) -> Vec<u8>;

    /// A complete, independent copy of the device's *runtime* state, used
    /// by the asynchronous adversary's look-ahead
    /// ([`crate::async_sched`]) to try a delivery on a copy before
    /// committing to it.
    ///
    /// The contract is total fidelity: the fork must step exactly like the
    /// original from here on. Devices that cannot guarantee that return
    /// `None` (the default) — the adversary then cannot vet deliveries to
    /// this device and treats them as possibly deciding, which is always
    /// sound.
    fn fork(&self) -> Option<Box<dyn Device>> {
        None
    }
}

/// Canonical snapshot encoding.
///
/// The first byte of every snapshot is a decision tag; the rest is free-form
/// device state. `CHOOSE` (see [`snapshot::decision_in`]) reads only the tag, so a
/// decision is a pure function of the behavior, as the paper requires.
pub mod snapshot {
    use super::Decision;

    /// Tag: no decision yet.
    pub const UNDECIDED: u8 = 0;
    /// Tag: decided a Boolean; the next byte is 0 or 1.
    pub const BOOL: u8 = 1;
    /// Tag: decided a real; the next 8 bytes are its bit pattern.
    pub const REAL: u8 = 2;
    /// Tag: the node is in the FIRE state at this tick.
    pub const FIRE: u8 = 3;

    /// Builds an undecided snapshot around `state`.
    pub fn undecided(state: &[u8]) -> Vec<u8> {
        let mut v = Vec::with_capacity(1 + state.len());
        v.push(UNDECIDED);
        v.extend_from_slice(state);
        v
    }

    /// Builds a snapshot carrying a Boolean decision.
    pub fn decided_bool(b: bool, state: &[u8]) -> Vec<u8> {
        let mut v = Vec::with_capacity(2 + state.len());
        v.push(BOOL);
        v.push(u8::from(b));
        v.extend_from_slice(state);
        v
    }

    /// Builds a snapshot carrying a real-valued decision.
    pub fn decided_real(r: f64, state: &[u8]) -> Vec<u8> {
        debug_assert!(!r.is_nan(), "NaN decisions are not canonical");
        let mut v = Vec::with_capacity(9 + state.len());
        v.push(REAL);
        v.extend_from_slice(&r.to_bits().to_be_bytes());
        v.extend_from_slice(state);
        v
    }

    /// Builds a snapshot marking the FIRE state.
    pub fn fire(state: &[u8]) -> Vec<u8> {
        let mut v = Vec::with_capacity(1 + state.len());
        v.push(FIRE);
        v.extend_from_slice(state);
        v
    }

    /// Decodes the decision (if any) carried by one snapshot.
    pub fn decision_in(snap: &[u8]) -> Option<Decision> {
        match *snap.first()? {
            BOOL => Some(Decision::Bool(*snap.get(1)? != 0)),
            REAL => {
                let bits: [u8; 8] = snap.get(1..9)?.try_into().ok()?;
                Some(Decision::Real(f64::from_bits(u64::from_be_bytes(bits))))
            }
            FIRE => Some(Decision::Fire),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_accessors() {
        assert_eq!(Input::Bool(true).as_bool(), Some(true));
        assert_eq!(Input::Bool(true).as_real(), None);
        assert_eq!(Input::Real(0.25).as_real(), Some(0.25));
        assert_eq!(Input::None.as_bool(), None);
        assert_eq!(
            format!("{} {} {}", Input::None, Input::Bool(true), Input::Real(0.5)),
            "- 1 0.5"
        );
    }

    #[test]
    fn snapshot_round_trips_decisions() {
        assert_eq!(snapshot::decision_in(&snapshot::undecided(b"x")), None);
        assert_eq!(
            snapshot::decision_in(&snapshot::decided_bool(true, b"s")),
            Some(Decision::Bool(true))
        );
        assert_eq!(
            snapshot::decision_in(&snapshot::decided_real(1.5, &[])),
            Some(Decision::Real(1.5))
        );
        assert_eq!(
            snapshot::decision_in(&snapshot::fire(&[])),
            Some(Decision::Fire)
        );
        assert_eq!(snapshot::decision_in(&[]), None);
    }

    #[test]
    fn payload_is_bytewise_and_zero_copy() {
        let p: Payload = vec![1, 2, 3].into();
        let q = p.clone();
        assert_eq!(p, q);
        assert_eq!(&p[..], &[1, 2, 3]);
        assert!(std::ptr::eq(p.as_bytes(), q.as_bytes())); // clone = Arc bump
        let mut bytes = p.to_vec();
        bytes.push(4);
        let r: Payload = bytes.into();
        assert_eq!(&p[..], &[1, 2, 3]); // original untouched
        assert!(p < r);
        assert_eq!(format!("{p:?}"), "[1, 2, 3]");
        assert!(Payload::default().is_empty());
        assert_eq!(Payload::from([7u8]), Payload::from(&[7u8][..]));
    }

    #[test]
    fn node_ctx_port_lookup() {
        let ctx = NodeCtx {
            node: NodeId(0),
            ports: vec![NodeId(2), NodeId(5)],
            input: Input::None,
        };
        assert_eq!(ctx.port_count(), 2);
        assert_eq!(ctx.port_to(NodeId(5)), Some(1));
        assert_eq!(ctx.port_to(NodeId(9)), None);
    }
}
