//! Portfolio planning: which solvers to run on a classified instance.

use crate::engine::EngineConfig;
use crate::profile::{InstanceProfile, SizeTier};

/// The solvers the engine can orchestrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// `Algorithm_5/3` (Theorem 2): `O(|I|)`, certified `⌊(5/3)·T⌋` horizon.
    FiveThirds,
    /// `Algorithm_3/2` (Theorem 7): `O(n + m log m)`, certified `⌊(3/2)·T⌋`.
    ThreeHalves,
    /// Hebrard et al.-style greedy baseline (heuristic, no a-priori bound
    /// reported by the implementation).
    HebrardGreedy,
    /// Class-respecting list scheduler baseline (heuristic).
    ListScheduler,
    /// Class-merging + LPT baseline (heuristic; `2m/(m+1)`-ish in practice).
    MergedLpt,
    /// Exact branch-and-bound under a node budget; proves optimality when it
    /// completes.
    Exact,
    /// The EPTAS (`eptas_fixed_m`) under a node budget; used as a
    /// high-quality heuristic probe on small instances.
    Eptas,
}

impl SolverKind {
    /// Stable machine-readable name (used in reports and the CLI).
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::FiveThirds => "five_thirds",
            SolverKind::ThreeHalves => "three_halves",
            SolverKind::HebrardGreedy => "hebrard_greedy",
            SolverKind::ListScheduler => "list_scheduler",
            SolverKind::MergedLpt => "merged_lpt",
            SolverKind::Exact => "exact",
            SolverKind::Eptas => "eptas",
        }
    }

    /// Parses a [`SolverKind::name`] back.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "five_thirds" => SolverKind::FiveThirds,
            "three_halves" => SolverKind::ThreeHalves,
            "hebrard_greedy" => SolverKind::HebrardGreedy,
            "list_scheduler" => SolverKind::ListScheduler,
            "merged_lpt" => SolverKind::MergedLpt,
            "exact" => SolverKind::Exact,
            "eptas" => SolverKind::Eptas,
            _ => return None,
        })
    }

    /// All kinds, in the canonical execution order (cheap incumbents first).
    pub fn all() -> [SolverKind; 7] {
        [
            SolverKind::FiveThirds,
            SolverKind::ThreeHalves,
            SolverKind::HebrardGreedy,
            SolverKind::ListScheduler,
            SolverKind::MergedLpt,
            SolverKind::Exact,
            SolverKind::Eptas,
        ]
    }

    /// Stable column index of this kind in [`SolverKind::all`] order
    /// (telemetry outcome-table axis).
    pub const fn index(self) -> usize {
        match self {
            SolverKind::FiveThirds => 0,
            SolverKind::ThreeHalves => 1,
            SolverKind::HebrardGreedy => 2,
            SolverKind::ListScheduler => 3,
            SolverKind::MergedLpt => 4,
            SolverKind::Exact => 5,
            SolverKind::Eptas => 6,
        }
    }
}

impl std::fmt::Display for SolverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The planned portfolio for one instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Portfolio {
    /// Members in canonical execution order.
    pub members: Vec<SolverKind>,
}

/// Plans the portfolio for `profile` under `cfg`.
///
/// * Trivial instances need only `Algorithm_5/3` (its shared fast path is
///   already optimal there).
/// * Every non-trivial instance gets both approximation algorithms — the
///   5/3 as an instant incumbent and the 3/2 for the certified 1.5 horizon —
///   plus the baselines when [`EngineConfig::run_baselines`] is set.
/// * Tiny instances additionally race the exact solver; small ones race the
///   EPTAS (both under node budgets from `cfg`).
pub fn plan(profile: &InstanceProfile, cfg: &EngineConfig) -> Portfolio {
    let mut members = vec![SolverKind::FiveThirds];
    if profile.tier != SizeTier::Trivial {
        members.push(SolverKind::ThreeHalves);
        if cfg.run_baselines {
            members.push(SolverKind::HebrardGreedy);
            members.push(SolverKind::ListScheduler);
            members.push(SolverKind::MergedLpt);
        }
        if profile.jobs <= cfg.exact.max_jobs && profile.classes <= cfg.exact.max_classes {
            members.push(SolverKind::Exact);
        }
        if cfg.eptas.enabled
            && profile.jobs <= cfg.eptas.max_jobs
            && profile.machines <= cfg.eptas.max_machines
        {
            members.push(SolverKind::Eptas);
        }
    }
    Portfolio { members }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::classify;
    use msrs_core::Instance;

    fn cfg() -> EngineConfig {
        EngineConfig::default()
    }

    #[test]
    fn trivial_instances_get_the_fast_path_only() {
        let inst = Instance::from_classes(4, &[vec![3], vec![9]]).unwrap();
        let p = plan(&classify(&inst), &cfg());
        assert_eq!(p.members, vec![SolverKind::FiveThirds]);
    }

    #[test]
    fn tiny_instances_race_exact() {
        let inst = Instance::from_classes(2, &[vec![4, 3], vec![5], vec![2, 2]]).unwrap();
        let p = plan(&classify(&inst), &cfg());
        assert!(p.members.contains(&SolverKind::Exact));
        assert!(p.members.contains(&SolverKind::ThreeHalves));
        assert_eq!(p.members[0], SolverKind::FiveThirds);
    }

    #[test]
    fn large_instances_use_approximations_only() {
        let inst = msrs_gen::uniform(3, 8, 500, 64, 1, 40);
        let p = plan(&classify(&inst), &cfg());
        assert!(!p.members.contains(&SolverKind::Exact));
        assert!(!p.members.contains(&SolverKind::Eptas));
        assert!(p.members.contains(&SolverKind::ThreeHalves));
    }

    #[test]
    fn baselines_can_be_disabled() {
        let inst = msrs_gen::uniform(3, 8, 500, 64, 1, 40);
        let mut c = cfg();
        c.run_baselines = false;
        let p = plan(&classify(&inst), &c);
        assert_eq!(
            p.members,
            vec![SolverKind::FiveThirds, SolverKind::ThreeHalves]
        );
    }

    #[test]
    fn names_round_trip() {
        for kind in SolverKind::all() {
            assert_eq!(SolverKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(SolverKind::from_name("nope"), None);
    }

    #[test]
    fn index_matches_canonical_order() {
        for (i, kind) in SolverKind::all().iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }
}
