//! The pre-inline-slot erased-state representation, preserved as a test
//! reference.
//!
//! Before `population::slot`, the erased run path stored every agent state
//! as a `Box<dyn ErasedState>`: each access chased a heap pointer, each
//! interaction two of them, and the population's states were scattered
//! across the allocator.  This module is a faithful reproduction of that
//! representation ([`BoxedState`] + [`BoxedProtocol`]), used by
//! `tests/scenario_equivalence.rs` to pin that the inline-slot path produces
//! **bit-identical** reports and final states to the boxed reference for
//! every Table 1 protocol.
//!
//! It is *not* part of the production run path; `population`'s scenario
//! layer always uses the inline representation.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use population::{Configuration, LeaderElection, Protocol};

/// Object-safe supertrait bundle for boxed erased states (the old
/// `ErasedState`).  Blanket-implemented; never implemented manually.
pub trait BoxedErased: Any + Send + Sync {
    /// Clones into a new box.
    fn clone_dyn(&self) -> Box<dyn BoxedErased>;
    /// Structural equality (false when the underlying types differ).
    fn eq_dyn(&self, other: &dyn BoxedErased) -> bool;
    /// Debug-formats the underlying state.
    fn debug_dyn(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result;
    /// Upcast to [`Any`] for downcasting.
    fn as_any(&self) -> &dyn Any;
    /// Mutable upcast to [`Any`] for downcasting.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<S> BoxedErased for S
where
    S: Any + Clone + PartialEq + fmt::Debug + Send + Sync,
{
    fn clone_dyn(&self) -> Box<dyn BoxedErased> {
        Box::new(self.clone())
    }

    fn eq_dyn(&self, other: &dyn BoxedErased) -> bool {
        other
            .as_any()
            .downcast_ref::<S>()
            .is_some_and(|o| o == self)
    }

    fn debug_dyn(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A heap-boxed, type-erased per-agent state: one allocation per agent, one
/// pointer chase per access.  Satisfies the [`Protocol::State`] bounds, so
/// `Configuration<BoxedState>` plugs into the ordinary simulation engine.
pub struct BoxedState(Box<dyn BoxedErased>);

impl BoxedState {
    /// Boxes a typed state.
    pub fn new<S>(state: S) -> Self
    where
        S: Any + Clone + PartialEq + fmt::Debug + Send + Sync,
    {
        BoxedState(Box::new(state))
    }

    /// Borrows the underlying state if it has type `S`.
    pub fn downcast_ref<S: Any>(&self) -> Option<&S> {
        self.0.as_any().downcast_ref::<S>()
    }

    /// Mutably borrows the underlying state if it has type `S`.
    pub fn downcast_mut<S: Any>(&mut self) -> Option<&mut S> {
        self.0.as_any_mut().downcast_mut::<S>()
    }
}

impl Clone for BoxedState {
    fn clone(&self) -> Self {
        BoxedState(self.0.clone_dyn())
    }
}

impl PartialEq for BoxedState {
    fn eq(&self, other: &Self) -> bool {
        self.0.eq_dyn(other.0.as_ref())
    }
}

impl fmt::Debug for BoxedState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.debug_dyn(f)
    }
}

/// Rebuilds a typed configuration from a boxed-erased one, if every agent
/// state has type `S`.
pub fn downcast_boxed_config<S: Any + Clone>(
    config: &Configuration<BoxedState>,
) -> Option<Configuration<S>> {
    let mut states = Vec::with_capacity(config.len());
    for s in config.states() {
        states.push(s.downcast_ref::<S>()?.clone());
    }
    Some(Configuration::from_states(states))
}

/// Object-safe protocol face over [`BoxedState`] (the scenario layer's
/// `DynLeaderElection`, specialized to the boxed representation).
trait BoxedLe: Send + Sync {
    fn interact_dyn(&self, initiator: &mut BoxedState, responder: &mut BoxedState);
    fn oracle_marks_dyn(&self, state: &BoxedState) -> u8;
    fn oracle_apply_dyn(&self, view: u8, state: &mut BoxedState);
    fn uses_oracle_dyn(&self) -> bool;
    fn is_leader_dyn(&self, state: &BoxedState) -> bool;
    fn protocol_name(&self) -> &'static str;
}

/// Erasure wrapper over a typed leader-election protocol.
struct ErasedLe<P>(P);

impl<P> ErasedLe<P>
where
    P: LeaderElection,
    P::State: Any,
{
    fn typed<'a>(&self, state: &'a BoxedState) -> &'a P::State {
        state
            .downcast_ref()
            .unwrap_or_else(|| panic!("state does not belong to protocol {}", self.0.name()))
    }

    fn typed_mut<'a>(&self, state: &'a mut BoxedState) -> &'a mut P::State {
        state
            .downcast_mut()
            .unwrap_or_else(|| panic!("state does not belong to protocol {}", self.0.name()))
    }
}

impl<P> BoxedLe for ErasedLe<P>
where
    P: LeaderElection + 'static,
    P::State: Any,
{
    fn interact_dyn(&self, initiator: &mut BoxedState, responder: &mut BoxedState) {
        let i = self.typed_mut(initiator);
        let r = self.typed_mut(responder);
        self.0.interact(i, r);
    }

    fn oracle_marks_dyn(&self, state: &BoxedState) -> u8 {
        self.0.oracle_marks(self.typed(state))
    }

    fn oracle_apply_dyn(&self, view: u8, state: &mut BoxedState) {
        self.0.oracle_apply(view, self.typed_mut(state));
    }

    fn uses_oracle_dyn(&self) -> bool {
        self.0.uses_oracle()
    }

    fn is_leader_dyn(&self, state: &BoxedState) -> bool {
        state
            .downcast_ref::<P::State>()
            .is_some_and(|s| self.0.is_leader(s))
    }

    fn protocol_name(&self) -> &'static str {
        self.0.name()
    }
}

/// A type-erased protocol over [`BoxedState`] — the pre-inline-slot
/// `DynProtocol`, kept for baseline measurements.
#[derive(Clone)]
pub struct BoxedProtocol {
    inner: Arc<dyn BoxedLe>,
}

impl BoxedProtocol {
    /// Erases a leader-election protocol.
    pub fn erase<P>(protocol: P) -> Self
    where
        P: LeaderElection + 'static,
        P::State: Any,
    {
        BoxedProtocol {
            inner: Arc::new(ErasedLe(protocol)),
        }
    }
}

impl fmt::Debug for BoxedProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BoxedProtocol")
            .field("name", &self.inner.protocol_name())
            .finish()
    }
}

impl Protocol for BoxedProtocol {
    type State = BoxedState;

    /// Conservative, exactly like the erased production path: whether the
    /// wrapped protocol really has an oracle is reported by `uses_oracle`.
    const HAS_ENVIRONMENT: bool = true;

    fn interact(&self, initiator: &mut BoxedState, responder: &mut BoxedState) {
        self.inner.interact_dyn(initiator, responder);
    }

    fn oracle_marks(&self, state: &BoxedState) -> u8 {
        self.inner.oracle_marks_dyn(state)
    }

    fn oracle_apply(&self, view: u8, state: &mut BoxedState) {
        self.inner.oracle_apply_dyn(view, state);
    }

    fn uses_oracle(&self) -> bool {
        self.inner.uses_oracle_dyn()
    }

    fn name(&self) -> &'static str {
        self.inner.protocol_name()
    }
}

impl LeaderElection for BoxedProtocol {
    fn is_leader(&self, state: &BoxedState) -> bool {
        self.inner.is_leader_dyn(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Fratricide;
    impl Protocol for Fratricide {
        type State = bool;
        fn interact(&self, initiator: &mut bool, responder: &mut bool) {
            if *initiator && *responder {
                *responder = false;
            }
        }
        fn name(&self) -> &'static str {
            "fratricide"
        }
    }
    impl LeaderElection for Fratricide {
        fn is_leader(&self, s: &bool) -> bool {
            *s
        }
    }

    #[test]
    fn boxed_state_behaves_like_the_typed_state() {
        let a = BoxedState::new(5u32);
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, BoxedState::new(6u32));
        assert_ne!(a, BoxedState::new(5u64));
        assert_eq!(format!("{a:?}"), "5");
        assert_eq!(a.downcast_ref::<u32>(), Some(&5));
        assert_eq!(a.downcast_ref::<u64>(), None);
    }

    #[test]
    fn boxed_protocol_runs_and_elects() {
        use population::{CompleteGraph, Simulation};
        let n = 8;
        let config: Configuration<BoxedState> = (0..n).map(|_| BoxedState::new(true)).collect();
        let mut sim = Simulation::new(
            BoxedProtocol::erase(Fratricide),
            CompleteGraph::new(n),
            config,
            7,
        );
        let report = sim.run_until(
            |p: &BoxedProtocol, c: &Configuration<BoxedState>| p.count_leaders(c.states()) == 1,
            1,
            100_000,
        );
        assert!(report.converged());
        let typed = downcast_boxed_config::<bool>(sim.config()).unwrap();
        assert_eq!(typed.count_where(|&b| b), 1);
        assert!(downcast_boxed_config::<u32>(sim.config()).is_none());
        assert!(format!("{:?}", BoxedProtocol::erase(Fratricide)).contains("fratricide"));
    }
}
