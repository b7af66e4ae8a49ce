//! Ablations of the GSU19 protocol — each removes one design element the
//! paper argues is load-bearing, so the benches can show what that element
//! buys (bench `ablation`).

use core_protocol::{Gsu19, Params};

/// GSU19 without the drag/inhibitor machinery (rules (8)–(10) disabled).
///
/// Passive candidates can then only be withdrawn by direct seniority duels
/// (rule (11)), whose last stragglers need Θ(n) parallel time — this is the
/// Section 7 argument for why the drag counter is what makes the
/// `O(log n log log n)` *expected stabilisation* bound possible.
pub fn gsu_no_drag(n: u64) -> Gsu19 {
    let mut p = Params::for_population(n);
    p.enable_drag = false;
    Gsu19::new(p)
}

/// GSU19 with direct elimination: tails-drawers withdraw to `W` instead of
/// turning passive.
///
/// As fast as the real protocol whp, but *not* Las Vegas: a
/// desynchronisation (or sheer bad luck at small n) can cull every
/// candidate, and then no leader ever emerges — the failure mode the
/// passive/drag construction exists to rule out. The `ablation` bench
/// measures its failure rate.
pub fn gsu_direct_withdrawal(n: u64) -> Gsu19 {
    let mut p = Params::for_population(n);
    p.enable_drag = false;
    p.direct_withdrawal = true;
    Gsu19::new(p)
}

/// GSU19 without the slow backup (rule (11) disabled).
///
/// Isolates the phase-clock machinery: elimination happens only through
/// coin rounds. Convergence still occurs whp, but alive–alive ties that
/// the coins cannot break (e.g. two candidates that always flip the same
/// way in a void round pattern) are no longer cleaned up by duels.
pub fn gsu_no_backup(n: u64) -> Gsu19 {
    let mut p = Params::for_population(n);
    p.enable_backup = false;
    Gsu19::new(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use core_protocol::Census;
    use ppsim::{run_until_stable, AgentSim, Simulator};

    #[test]
    fn no_drag_still_reaches_few_alive_quickly() {
        // Without drag the protocol still gets to a handful of alive
        // candidates fast; full stabilisation has a heavy tail, so we only
        // check the fast part here (the tail is measured by the bench).
        let n = 1u64 << 10;
        let proto = gsu_no_drag(n);
        let params = *proto.params();
        let mut sim = AgentSim::new(proto, n as usize, 3);
        sim.steps(3_000 * n);
        let c = Census::of(&sim, &params);
        assert!(c.alive() >= 1);
        assert!(
            c.active <= 4 * (n as f64).log2() as u64,
            "actives: {}",
            c.active
        );
    }

    #[test]
    fn no_drag_never_advances_drag() {
        let n = 1u64 << 10;
        let proto = gsu_no_drag(n);
        let params = *proto.params();
        let mut sim = AgentSim::new(proto, n as usize, 5);
        sim.steps(3_000 * n);
        let c = Census::of(&sim, &params);
        assert_eq!(c.max_alive_drag.unwrap_or(0), 0);
        assert!(c.inhibitor_high.iter().all(|&h| h == 0));
    }

    #[test]
    fn direct_withdrawal_produces_no_passives() {
        let n = 1u64 << 10;
        let proto = gsu_direct_withdrawal(n);
        let params = *proto.params();
        let mut sim = AgentSim::new(proto, n as usize, 7);
        sim.steps(3_000 * n);
        let c = Census::of(&sim, &params);
        assert_eq!(c.passive, 0);
    }

    #[test]
    fn direct_withdrawal_converges_on_good_seeds() {
        let n = 1u64 << 9;
        let proto = gsu_direct_withdrawal(n);
        let mut sim = AgentSim::new(proto, n as usize, 11);
        let res = run_until_stable(&mut sim, 30_000 * n);
        assert!(res.converged);
        assert_eq!(sim.leaders(), 1);
    }

    #[test]
    fn no_backup_still_converges() {
        let n = 1u64 << 9;
        let proto = gsu_no_backup(n);
        let mut sim = AgentSim::new(proto, n as usize, 13);
        let res = run_until_stable(&mut sim, 60_000 * n);
        assert!(res.converged, "no-backup variant did not converge");
        assert_eq!(sim.leaders(), 1);
    }
}
