//! Type erasure of protocols and their per-agent states.
//!
//! [`DynProtocol`] puts any protocol behind one object-safe trait over
//! [`DynState`] slots, so heterogeneous protocols flow through a single
//! `Simulation<DynProtocol, AnyGraph>`.  Erasure does not change the
//! execution: the scheduler, RNG stream and transition function are exactly
//! those of the typed path, so reports are bit-identical.  Erased states live
//! in fixed-size inline slots ([`crate::slot`]), so the erased configuration
//! is one contiguous buffer and the per-step cost matches static dispatch —
//! no per-agent heap boxes.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use crate::config::Configuration;
use crate::protocol::{LeaderElection, Protocol};
use crate::schedule::Interaction;
use crate::simulation::{oracle_in_use, OracleFold};
use crate::slot::{DynState, SlotState};

/// Rebuilds a typed configuration from an erased one, if every agent state
/// has type `S`.  Used by tests and examples that inspect final states after
/// a [`Scenario::run_full`](crate::scenario::Scenario::run_full).
pub fn downcast_config<S: SlotState>(config: &Configuration<DynState>) -> Option<Configuration<S>> {
    let mut states = Vec::with_capacity(config.len());
    for s in config.states() {
        states.push(s.downcast_ref::<S>()?.clone());
    }
    Some(Configuration::from_states(states))
}

/// The object-safe face of a (leader-election) protocol over [`DynState`]
/// slots.  Its one implementer is [`Erased`], behind [`DynProtocol::erase`]
/// (for [`LeaderElection`] protocols) and [`DynProtocol::erase_protocol`]
/// (for protocols without a leader output, whose `is_leader_dyn` is always
/// `false`).
trait DynLeaderElection: Send + Sync {
    /// The transition function on erased states.
    ///
    /// # Panics
    ///
    /// Panics if either state does not downcast to the protocol's state type
    /// (mixing states of different protocols in one configuration).
    fn interact_dyn(&self, initiator: &mut DynState, responder: &mut DynState);

    /// See [`Protocol::oracle_marks`].
    fn oracle_marks_dyn(&self, state: &DynState) -> u8;

    /// See [`Protocol::oracle_apply`].
    fn oracle_apply_dyn(&self, view: u8, state: &mut DynState);

    /// See [`Protocol::interact_block`]: a whole block of steps in one
    /// virtual call, into the block loop monomorphized for the typed
    /// protocol.
    fn interact_block_dyn(
        &self,
        states: &mut [DynState],
        oracle: &mut OracleFold,
        arcs: &[Interaction],
    );

    /// See [`Protocol::uses_oracle`].
    fn uses_oracle_dyn(&self) -> bool;

    /// The leader-output map; `false` for protocols without one.
    fn is_leader_dyn(&self, state: &DynState) -> bool;

    /// See [`Protocol::name`].
    fn protocol_name(&self) -> &'static str;
}

/// Erasure wrapper: the typed protocol and its leader output, which is
/// constantly `false` for protocols without one.
///
/// It is also `P`'s static slot view: a [`Protocol`] over [`DynState`] that
/// downcasts and calls `P` directly.  Its block loop
/// ([`Protocol::interact_block`]) is therefore monomorphized for `P`, oracle
/// fold included, behind the one virtual call of
/// [`DynLeaderElection::interact_block_dyn`].
#[derive(Clone)]
struct Erased<P: Protocol> {
    protocol: P,
    is_leader: fn(&P, &P::State) -> bool,
}

impl<P> Erased<P>
where
    P: Protocol,
    P::State: Any,
{
    fn typed<'a>(&self, state: &'a DynState) -> &'a P::State {
        state
            .downcast_ref()
            .unwrap_or_else(|| panic!("state does not belong to protocol {}", self.protocol.name()))
    }

    fn typed_mut<'a>(&self, state: &'a mut DynState) -> &'a mut P::State {
        state
            .downcast_mut()
            .unwrap_or_else(|| panic!("state does not belong to protocol {}", self.protocol.name()))
    }
}

impl<P> Protocol for Erased<P>
where
    P: Protocol,
    P::State: Any,
{
    type State = DynState;
    const HAS_ENVIRONMENT: bool = P::HAS_ENVIRONMENT;

    fn interact(&self, initiator: &mut DynState, responder: &mut DynState) {
        let i = self.typed_mut(initiator);
        let r = self.typed_mut(responder);
        self.protocol.interact(i, r);
    }

    fn oracle_marks(&self, state: &DynState) -> u8 {
        self.protocol.oracle_marks(self.typed(state))
    }

    fn oracle_apply(&self, view: u8, state: &mut DynState) {
        self.protocol.oracle_apply(view, self.typed_mut(state));
    }

    /// Downcasts the pair once, so that the oracle fold's reads and writes
    /// of the interacting agents check their types no more often than
    /// `interact` does.
    #[inline]
    fn oracle_interact(
        &self,
        settle: Option<u8>,
        initiator: &mut DynState,
        responder: &mut DynState,
    ) -> Option<(u8, u8)> {
        let initiator = self.typed_mut(initiator);
        let responder = self.typed_mut(responder);
        self.protocol.oracle_interact(settle, initiator, responder)
    }

    /// Panics, as the typed [`Simulation::try_new`](crate::simulation::Simulation::try_new) does, if `P` reports an
    /// oracle without setting [`Protocol::HAS_ENVIRONMENT`]: the block loop
    /// would compile its oracle out.
    fn uses_oracle(&self) -> bool {
        oracle_in_use(&self.protocol)
    }

    fn name(&self) -> &'static str {
        self.protocol.name()
    }
}

impl<P> DynLeaderElection for Erased<P>
where
    P: Protocol + 'static,
    P::State: Any,
{
    fn interact_dyn(&self, initiator: &mut DynState, responder: &mut DynState) {
        self.interact(initiator, responder);
    }

    fn oracle_marks_dyn(&self, state: &DynState) -> u8 {
        self.oracle_marks(state)
    }

    fn oracle_apply_dyn(&self, view: u8, state: &mut DynState) {
        self.oracle_apply(view, state);
    }

    fn interact_block_dyn(
        &self,
        states: &mut [DynState],
        oracle: &mut OracleFold,
        arcs: &[Interaction],
    ) {
        self.interact_block(states, oracle, arcs);
    }

    fn uses_oracle_dyn(&self) -> bool {
        self.uses_oracle()
    }

    fn is_leader_dyn(&self, state: &DynState) -> bool {
        state
            .downcast_ref::<P::State>()
            .is_some_and(|s| (self.is_leader)(&self.protocol, s))
    }

    fn protocol_name(&self) -> &'static str {
        self.name()
    }
}

/// A type-erased protocol: implements [`Protocol`] (and [`LeaderElection`])
/// over [`DynState`], delegating to the erased inner protocol.
///
/// Cloning is cheap (`Arc`).
#[derive(Clone)]
pub struct DynProtocol {
    inner: Arc<dyn DynLeaderElection>,
}

impl DynProtocol {
    /// Erases a leader-election protocol.
    pub fn erase<P>(protocol: P) -> Self
    where
        P: LeaderElection + 'static,
        P::State: Any,
    {
        DynProtocol {
            inner: Arc::new(Erased {
                protocol,
                is_leader: P::is_leader,
            }),
        }
    }

    /// Erases a protocol without a leader output ([`LeaderElection::is_leader`]
    /// of the erased protocol is constantly `false`).
    pub fn erase_protocol<P>(protocol: P) -> Self
    where
        P: Protocol + 'static,
        P::State: Any,
    {
        DynProtocol {
            inner: Arc::new(Erased {
                protocol,
                is_leader: |_, _| false,
            }),
        }
    }
}

impl fmt::Debug for DynProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynProtocol")
            .field("name", &self.inner.protocol_name())
            .finish()
    }
}

impl Protocol for DynProtocol {
    type State = DynState;

    /// Conservatively `true`: whether the erased protocol actually has an
    /// oracle is a runtime property, reported by
    /// [`Protocol::uses_oracle`] and cached once per run by the simulation
    /// — pure protocols under erasure still skip the oracle bookkeeping.
    const HAS_ENVIRONMENT: bool = true;

    fn interact(&self, initiator: &mut DynState, responder: &mut DynState) {
        self.inner.interact_dyn(initiator, responder);
    }

    fn oracle_marks(&self, state: &DynState) -> u8 {
        self.inner.oracle_marks_dyn(state)
    }

    fn oracle_apply(&self, view: u8, state: &mut DynState) {
        self.inner.oracle_apply_dyn(view, state);
    }

    fn interact_block(
        &self,
        states: &mut [DynState],
        oracle: &mut OracleFold,
        arcs: &[Interaction],
    ) {
        self.inner.interact_block_dyn(states, oracle, arcs);
    }

    fn uses_oracle(&self) -> bool {
        self.inner.uses_oracle_dyn()
    }

    fn name(&self) -> &'static str {
        self.inner.protocol_name()
    }
}

impl LeaderElection for DynProtocol {
    fn is_leader(&self, state: &DynState) -> bool {
        self.inner.is_leader_dyn(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphFamily;
    use crate::simulation::Simulation;

    #[test]
    fn dyn_state_behaves_like_the_typed_state() {
        let a = DynState::new(5u32);
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, DynState::new(6u32));
        assert_ne!(
            a,
            DynState::new(5u64),
            "different types never compare equal"
        );
        assert_eq!(format!("{a:?}"), "5");
        assert_eq!(a.downcast_ref::<u32>(), Some(&5));
        assert_eq!(a.downcast_ref::<u64>(), None);
        let mut c = a.clone();
        *c.downcast_mut::<u32>().unwrap() = 9;
        assert_eq!(c.downcast_ref::<u32>(), Some(&9));
    }

    /// Erasure keeps the typed simulation's check: an oracle without
    /// [`Protocol::HAS_ENVIRONMENT`] would be compiled out of the block loop.
    #[test]
    #[should_panic(expected = "HAS_ENVIRONMENT")]
    fn erased_oracle_without_has_environment_is_rejected_at_construction() {
        #[derive(Clone, Debug)]
        struct Misconfigured;
        impl Protocol for Misconfigured {
            type State = bool;
            fn interact(&self, _i: &mut bool, _r: &mut bool) {}
            fn uses_oracle(&self) -> bool {
                true
            }
        }
        let graph = GraphFamily::Complete.build(4).unwrap();
        let config = Configuration::uniform(4, DynState::new(false));
        let _ = Simulation::new(DynProtocol::erase_protocol(Misconfigured), graph, config, 0);
    }
}
