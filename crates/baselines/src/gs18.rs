//! GS18-style baseline: *"Fast space optimal leader election in population
//! protocols"* (Gąsieniec, Stachowiak; SODA 2018) — the direct predecessor
//! the paper improves on. `O(log log n)` states, `O(log² n)` time whp.
//!
//! Structure: the same junta election and junta-driven phase clock as
//! GSU19, but elimination is a single loop of *uniform* coin rounds — no
//! biased-coin cascade, no drag machinery: every round, each surviving
//! candidate flips the level-0 coin (heads probability ≈ ¼), heads are
//! broadcast in the late half-round, and tails-drawers that hear of heads
//! drop out **directly**. Reducing ≈ n/2 candidates this way takes
//! Θ(log n) rounds of Θ(log n) parallel time each — the Θ(log² n) the
//! paper's fast-elimination cascade (Θ(log log n) rounds) beats.
//!
//! Implementation: GSU19's substrate with `skip_fast_elim` (no cascade),
//! `enable_drag = false` and `direct_withdrawal` (GS18 has no
//! passive/drag safety net; its original synchronisation-failure handling
//! differs in detail, and like our rendition it keeps the slow duel rule as
//! backup). Differences from the SODA'18 original: GS18 flips junta-derived
//! fair coins where we read the level-0 coin (bias ¼ instead of ½ — same
//! Θ(log n) round count, slightly different constant), and GS18's clock
//! phases double as its coin; both simplifications preserve the state and
//! time shape, which is what Table 1 compares.

use core_protocol::{Gsu19, Params};
use ppsim::{CompiledProtocol, EnumerableProtocol, FactoredProtocol, Output, Protocol};

/// GS18-style protocol. Thin wrapper over the shared substrate so that
/// measured differences against [`core_protocol::Gsu19`] isolate the
/// elimination mechanism.
#[derive(Clone, Copy, Debug)]
pub struct Gs18 {
    inner: Gsu19,
}

impl Gs18 {
    /// Instance tuned for a population of size `n`.
    pub fn for_population(n: u64) -> Self {
        let mut p = Params::for_population(n);
        p.skip_fast_elim = true;
        p.enable_drag = false;
        p.direct_withdrawal = true;
        Self {
            inner: Gsu19::new(p),
        }
    }

    /// The underlying parameters.
    pub fn params(&self) -> &Params {
        self.inner.params()
    }

    /// Access the underlying substrate protocol (for census taking).
    pub fn inner(&self) -> &Gsu19 {
        &self.inner
    }

    /// Compile into transition tables (see [`ppsim::compiled`]): the
    /// phase and per-bucket tables are built here, and each role entry is
    /// probed the first time an interaction looks it up.
    pub fn compiled(self) -> CompiledProtocol<Gs18> {
        CompiledProtocol::new(self)
    }
}

impl Protocol for Gs18 {
    type State = <Gsu19 as Protocol>::State;

    fn initial_state(&self) -> Self::State {
        self.inner.initial_state()
    }

    fn transition(&self, r: Self::State, i: Self::State) -> (Self::State, Self::State) {
        self.inner.transition(r, i)
    }

    fn output(&self, s: Self::State) -> Output {
        self.inner.output(s)
    }
}

impl EnumerableProtocol for Gs18 {
    fn num_states(&self) -> usize {
        self.inner.num_states()
    }
    fn state_id(&self, s: Self::State) -> usize {
        self.inner.state_id(s)
    }
    fn state_from_id(&self, id: usize) -> Self::State {
        self.inner.state_from_id(id)
    }
}

/// Same substrate, same factorisation: delegate the compiled-table
/// contract to the GSU19 implementation.
impl FactoredProtocol for Gs18 {
    fn phase_count(&self) -> usize {
        self.inner.phase_count()
    }
    fn phase_class_count(&self) -> usize {
        self.inner.phase_class_count()
    }
    fn phase_class(&self, bucket: usize) -> usize {
        self.inner.phase_class(bucket)
    }
    fn tick_class_count(&self) -> usize {
        self.inner.tick_class_count()
    }
    fn tick_class(&self, old_phase: usize, new_phase: usize) -> usize {
        self.inner.tick_class(old_phase, new_phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core_protocol::Census;
    use ppsim::{run_until_stable, AgentSim, Simulator};

    #[test]
    fn elects_unique_leader() {
        let n = 1u64 << 10;
        let proto = Gs18::for_population(n);
        let mut sim = AgentSim::new(proto, n as usize, 3);
        let res = run_until_stable(&mut sim, 40_000 * n);
        assert!(res.converged);
        assert_eq!(sim.leaders(), 1);
    }

    #[test]
    fn multiple_seeds_converge() {
        let n = 1u64 << 9;
        for seed in 0..6u64 {
            let proto = Gs18::for_population(n);
            let mut sim = AgentSim::new(proto, n as usize, 200 + seed);
            let res = run_until_stable(&mut sim, 60_000 * n);
            assert!(res.converged, "seed {seed}");
        }
    }

    #[test]
    fn no_fast_elimination_cascade() {
        // cnt starts at 1: after the idle round every candidate is in the
        // final epoch.
        let proto = Gs18::for_population(1 << 10);
        assert_eq!(proto.params().cnt_init(), 1);
        assert_eq!(proto.params().coin_for_cnt(1), None);
        assert_eq!(proto.params().coin_for_cnt(0), Some(0));
    }

    #[test]
    fn produces_no_passives() {
        let n = 1u64 << 10;
        let proto = Gs18::for_population(n);
        let params = *proto.params();
        let mut sim = AgentSim::new(proto, n as usize, 5);
        sim.steps(2_000 * n);
        let c = Census::of(&sim, &params);
        assert_eq!(c.passive, 0);
        assert!(c.alive() >= 1);
    }

    #[test]
    fn fewer_states_than_full_protocol() {
        let gs = Gs18::for_population(1 << 12);
        let gsu = core_protocol::Gsu19::for_population(1 << 12);
        assert!(gs.num_states() < gsu.num_states());
    }
}
