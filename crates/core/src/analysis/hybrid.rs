//! §4: the hybrid architecture — `k` FIFO queues under a WFQ scheduler.
//!
//! Each queue `i` aggregates a group of flows with combined rate
//! `ρ̂ᵢ = Σρ` and burst `σ̂ᵢ = Σσ`, is served at rate `Rᵢ` by the
//! scheduler, and applies threshold buffer management internally. The
//! paper's results:
//!
//! * Eq. (11): queue `i` needs `Bᵢ = Rᵢ·σ̂ᵢ/(Rᵢ − ρ̂ᵢ)` (footnote 6: a
//!   single-flow queue needs only `σ̂ᵢ`);
//! * Prop. 3 / Eq. (14): splitting the excess `R − ρ` as
//!   `αᵢ ∝ √(σ̂ᵢρ̂ᵢ)` minimizes the total buffer;
//! * Eq. (18)–(19): under that split, `Bᵢ = σ̂ᵢ + S·√(σ̂ᵢρ̂ᵢ)/(R−ρ)` and
//!   `B_hybrid = σ + S²/(R−ρ)` with `S = Σ√(σ̂ᵢρ̂ᵢ)`;
//! * Eq. (17): `B_FIFO − B_hybrid = (σρ − S²)/(R−ρ) ≥ 0` by
//!   Cauchy–Schwarz — the pairwise form
//!   `Σ_{i<j}(√(σ̂ᵢρ̂ⱼ) − √(σ̂ⱼρ̂ᵢ))²` shows savings come from grouping
//!   *dissimilar* (σ/ρ-ratio) groups apart.
//!
//! Since `B_hybrid` depends on the grouping only through `S = Σ√(σ̂ᵢρ̂ᵢ)`,
//! finding the best grouping is the problem of partitioning flows to
//! minimize `S`; [`Grouping::optimize_contiguous`] solves it exactly over
//! σ/ρ-ratio-sorted contiguous partitions by dynamic programming, and
//! [`Grouping::optimize_exhaustive`] brute-forces small instances to
//! validate the heuristic.

use crate::analysis::fifo_bounds::required_buffer_eq9;
use crate::flow::FlowSpec;
use crate::units::approx_eq;

/// Aggregate `(σ̂, ρ̂)` profile of one queue's flow group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupProfile {
    /// Combined burst σ̂ᵢ, bytes.
    pub sigma_bytes: f64,
    /// Combined token rate ρ̂ᵢ, bits/s.
    pub rho_bps: f64,
    /// Number of flows aggregated (footnote 6 applies when 1).
    pub n_flows: usize,
}

impl GroupProfile {
    /// Aggregate a set of specs into one profile.
    pub fn from_specs(specs: &[FlowSpec]) -> GroupProfile {
        GroupProfile {
            sigma_bytes: specs.iter().map(|s| s.bucket_bytes as f64).sum(),
            rho_bps: specs.iter().map(|s| s.token_rate.bps() as f64).sum(),
            n_flows: specs.len(),
        }
    }

    /// `√(σ̂ᵢ·ρ̂ᵢ)` — the group's contribution to `S`.
    pub fn s_term(&self) -> f64 {
        (self.sigma_bytes * self.rho_bps).sqrt()
    }
}

/// Eq. (14): the buffer-minimizing split `αᵢ = √(σ̂ᵢρ̂ᵢ)/S` of the excess
/// capacity. Degenerate groups (σ̂ᵢρ̂ᵢ = 0) receive an equal share of
/// whatever weight is left so rates stay feasible.
pub fn optimal_alphas(groups: &[GroupProfile]) -> Vec<f64> {
    assert!(!groups.is_empty());
    let s: f64 = groups.iter().map(|g| g.s_term()).sum();
    if approx_eq(s, 0.0, f64::EPSILON) {
        return vec![1.0 / groups.len() as f64; groups.len()];
    }
    groups.iter().map(|g| g.s_term() / s).collect()
}

/// Eq. (16): per-queue service rates `Rᵢ = ρ̂ᵢ + αᵢ(R − ρ)` in b/s.
/// Panics if the groups oversubscribe the link (`ρ ≥ R` leaves no
/// excess and makes Eq. 11 diverge).
pub fn rate_assignment_eq16(r_bps: f64, groups: &[GroupProfile], alphas: &[f64]) -> Vec<f64> {
    assert_eq!(groups.len(), alphas.len());
    let rho: f64 = groups.iter().map(|g| g.rho_bps).sum();
    assert!(
        rho < r_bps,
        "groups oversubscribe the link: {rho} >= {r_bps}"
    );
    let excess = r_bps - rho;
    groups
        .iter()
        .zip(alphas)
        .map(|(g, a)| g.rho_bps + a * excess)
        .collect()
}

/// Eq. (11): buffer needed by a queue served at `r_i_bps` — with the
/// footnote-6 refinement for single-flow queues.
pub fn queue_buffer_eq11(group: &GroupProfile, r_i_bps: f64) -> f64 {
    if group.n_flows <= 1 {
        return group.sigma_bytes;
    }
    assert!(
        r_i_bps > group.rho_bps,
        "queue rate {r_i_bps} at or below its reservation {}",
        group.rho_bps
    );
    r_i_bps * group.sigma_bytes / (r_i_bps - group.rho_bps)
}

/// Eq. (18): queue `i`'s buffer under the optimal rate split:
/// `Bᵢ = σ̂ᵢ + S·√(σ̂ᵢρ̂ᵢ)/(R − ρ)`.
pub fn per_queue_buffer_eq18(group: &GroupProfile, s_total: f64, r_minus_rho_bps: f64) -> f64 {
    assert!(r_minus_rho_bps > 0.0);
    group.sigma_bytes + s_total * group.s_term() / r_minus_rho_bps
}

/// Eq. (19): total hybrid buffer under the optimal split:
/// `B_hybrid = σ + S²/(R − ρ)`.
pub fn hybrid_buffer_eq19(r_bps: f64, groups: &[GroupProfile]) -> f64 {
    let rho: f64 = groups.iter().map(|g| g.rho_bps).sum();
    let sigma: f64 = groups.iter().map(|g| g.sigma_bytes).sum();
    assert!(rho < r_bps, "oversubscribed");
    let s: f64 = groups.iter().map(|g| g.s_term()).sum();
    sigma + s * s / (r_bps - rho)
}

/// Eq. (13): the single-FIFO-queue requirement `B = R·σ/(R − ρ)` —
/// Eq. (9) ([`required_buffer_eq9`]) for the aggregate of all groups.
pub fn single_fifo_buffer_eq13(r_bps: f64, sigma_bytes: f64, rho_bps: f64) -> f64 {
    assert!(rho_bps < r_bps, "oversubscribed");
    required_buffer_eq9(r_bps, rho_bps, sigma_bytes)
}

/// Eq. (17): the buffer saved by the hybrid system,
/// `(σρ − S²)/(R − ρ)`; non-negative by Cauchy–Schwarz.
pub fn buffer_savings_eq17(r_bps: f64, groups: &[GroupProfile]) -> f64 {
    let rho: f64 = groups.iter().map(|g| g.rho_bps).sum();
    let sigma: f64 = groups.iter().map(|g| g.sigma_bytes).sum();
    assert!(rho < r_bps, "oversubscribed");
    let s: f64 = groups.iter().map(|g| g.s_term()).sum();
    (sigma * rho - s * s) / (r_bps - rho)
}

/// An assignment of flows to `k` queues.
#[derive(Debug, Clone, PartialEq)]
pub struct Grouping {
    /// `assignment[f]` = queue index of flow `f`.
    pub assignment: Vec<usize>,
    /// Number of queues `k`.
    pub k: usize,
}

impl Grouping {
    /// Build from an explicit assignment vector; validates indices and
    /// that every queue is non-empty.
    pub fn new(assignment: Vec<usize>, k: usize) -> Grouping {
        assert!(k >= 1);
        let mut seen = vec![false; k];
        for &q in &assignment {
            assert!(q < k, "queue index {q} out of range (k = {k})");
            seen[q] = true;
        }
        assert!(seen.iter().all(|&s| s), "a queue has no flows");
        Grouping { assignment, k }
    }

    /// Aggregate per-queue profiles for `specs` under this grouping.
    pub fn profiles(&self, specs: &[FlowSpec]) -> Vec<GroupProfile> {
        assert_eq!(specs.len(), self.assignment.len());
        let mut out = vec![
            GroupProfile {
                sigma_bytes: 0.0,
                rho_bps: 0.0,
                n_flows: 0
            };
            self.k
        ];
        for (spec, &q) in specs.iter().zip(&self.assignment) {
            out[q].sigma_bytes += spec.bucket_bytes as f64;
            out[q].rho_bps += spec.token_rate.bps() as f64;
            out[q].n_flows += 1;
        }
        out
    }

    /// Total buffer (Eq. 19) for this grouping under the optimal rate
    /// split on a rate-`r_bps` link.
    pub fn total_buffer(&self, specs: &[FlowSpec], r_bps: f64) -> f64 {
        hybrid_buffer_eq19(r_bps, &self.profiles(specs))
    }

    /// The flow indices in each queue (convenience for configuration).
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut m = vec![Vec::new(); self.k];
        for (f, &q) in self.assignment.iter().enumerate() {
            m[q].push(f);
        }
        m
    }

    /// Exact optimum over *contiguous* partitions of the flows sorted by
    /// burstiness ratio `σ/ρ`, via O(N²k) dynamic programming.
    ///
    /// Minimizing Eq. 19 is minimizing `S = Σ√(σ̂ᵢρ̂ᵢ)`, which is additive
    /// over groups, so a shortest-path DP over cut positions is exact
    /// within this family. The σ/ρ ordering is the paper's own intuition
    /// ("grouping flows such that one queue has significantly lower rate
    /// and burst requirements compared to another is beneficial") — and
    /// [`Grouping::optimize_exhaustive`] confirms the family contains the
    /// global optimum on every small instance we test.
    pub fn optimize_contiguous(specs: &[FlowSpec], k: usize) -> Grouping {
        assert!(k >= 1 && k <= specs.len());
        let n = specs.len();
        // Sort flow indices by σ/ρ (∞ for ρ = 0 flows — pure bursts last).
        let mut order: Vec<usize> = (0..n).collect();
        let ratio = |f: usize| {
            let s = &specs[f];
            if s.token_rate.bps() == 0 {
                f64::INFINITY
            } else {
                s.bucket_bytes as f64 / s.token_rate.bps() as f64
            }
        };
        order.sort_by(|&a, &b| ratio(a).partial_cmp(&ratio(b)).unwrap());
        // Prefix sums over the sorted order.
        let mut ps = vec![0.0f64; n + 1]; // σ prefix, bytes
        let mut pr = vec![0.0f64; n + 1]; // ρ prefix, b/s
        for (i, &f) in order.iter().enumerate() {
            ps[i + 1] = ps[i] + specs[f].bucket_bytes as f64;
            pr[i + 1] = pr[i] + specs[f].token_rate.bps() as f64;
        }
        let seg_cost = |a: usize, b: usize| {
            // cost of grouping sorted[a..b) into one queue: √(σ̂ρ̂)
            ((ps[b] - ps[a]) * (pr[b] - pr[a])).sqrt()
        };
        // dp[j][i] = min S for first i flows in j groups.
        let inf = f64::INFINITY;
        let mut dp = vec![vec![inf; n + 1]; k + 1];
        let mut cut = vec![vec![0usize; n + 1]; k + 1];
        dp[0][0] = 0.0;
        for j in 1..=k {
            for i in j..=n {
                for a in (j - 1)..i {
                    let c = dp[j - 1][a] + seg_cost(a, i);
                    if c < dp[j][i] {
                        dp[j][i] = c;
                        cut[j][i] = a;
                    }
                }
            }
        }
        // Reconstruct.
        let mut assignment = vec![0usize; n];
        let mut i = n;
        for j in (1..=k).rev() {
            let a = cut[j][i];
            for &f in &order[a..i] {
                assignment[f] = j - 1;
            }
            i = a;
        }
        Grouping::new(assignment, k)
    }

    /// Global optimum by enumerating all set partitions into exactly `k`
    /// groups (restricted-growth strings). Exponential — panics above 14
    /// flows; used to validate [`Grouping::optimize_contiguous`].
    pub fn optimize_exhaustive(specs: &[FlowSpec], k: usize) -> Grouping {
        let n = specs.len();
        assert!(n <= 14, "exhaustive search limited to 14 flows");
        assert!(k >= 1 && k <= n);
        let mut best: Option<(f64, Vec<usize>)> = None;
        // Restricted growth string enumeration: a[i] ≤ max(a[0..i]) + 1.
        let mut a = vec![0usize; n];
        loop {
            let used = a.iter().copied().max().unwrap() + 1;
            if used == k {
                let g = Grouping {
                    assignment: a.clone(),
                    k,
                };
                let s: f64 = g.profiles(specs).iter().map(|p| p.s_term()).sum();
                if best.as_ref().is_none_or(|(bs, _)| s < *bs) {
                    best = Some((s, a.clone()));
                }
            }
            // Next restricted growth string.
            let mut i = n - 1;
            loop {
                if i == 0 {
                    let (_, assignment) = best.expect("no valid partition found");
                    return Grouping::new(assignment, k);
                }
                let prefix_max = a[..i].iter().copied().max().unwrap();
                if a[i] <= prefix_max {
                    a[i] += 1;
                    for x in a.iter_mut().skip(i + 1) {
                        *x = 0;
                    }
                    break;
                }
                a[i] = 0;
                i -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowId;
    use crate::units::{ByteSize, Rate};
    use proptest::prelude::*;

    fn spec(i: u32, rho_mbps: f64, bucket_kib: u64) -> FlowSpec {
        FlowSpec::builder(FlowId(i))
            .token_rate(Rate::from_mbps(rho_mbps))
            .bucket(ByteSize::from_kib(bucket_kib).bytes())
            .build()
    }

    /// The paper's Case 1 grouping of Table 1: {0,1,2}, {3,4,5}, {6,7,8}.
    fn table1_groups() -> Vec<GroupProfile> {
        let g1: Vec<FlowSpec> = (0..3).map(|i| spec(i, 2.0, 50)).collect();
        let g2: Vec<FlowSpec> = (3..6).map(|i| spec(i, 8.0, 100)).collect();
        let g3 = vec![spec(6, 0.4, 50), spec(7, 0.4, 50), spec(8, 2.0, 50)];
        vec![
            GroupProfile::from_specs(&g1),
            GroupProfile::from_specs(&g2),
            GroupProfile::from_specs(&g3),
        ]
    }

    const R: f64 = 48e6;

    #[test]
    fn alphas_sum_to_one_and_follow_eq14() {
        let groups = table1_groups();
        let a = optimal_alphas(&groups);
        let sum: f64 = a.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        let s: f64 = groups.iter().map(|g| g.s_term()).sum();
        for (ai, g) in a.iter().zip(&groups) {
            assert!((ai - g.s_term() / s).abs() < 1e-12);
        }
    }

    #[test]
    fn rates_cover_reservations_and_sum_to_link() {
        let groups = table1_groups();
        let a = optimal_alphas(&groups);
        let rates = rate_assignment_eq16(R, &groups, &a);
        let total: f64 = rates.iter().sum();
        assert!((total - R).abs() < 1e-6);
        for (r_i, g) in rates.iter().zip(&groups) {
            assert!(*r_i > g.rho_bps);
        }
    }

    #[test]
    fn eq18_matches_eq11_under_optimal_rates() {
        let groups = table1_groups();
        let a = optimal_alphas(&groups);
        let rates = rate_assignment_eq16(R, &groups, &a);
        let rho: f64 = groups.iter().map(|g| g.rho_bps).sum();
        let s: f64 = groups.iter().map(|g| g.s_term()).sum();
        for (g, r_i) in groups.iter().zip(&rates) {
            let b11 = queue_buffer_eq11(g, *r_i);
            let b18 = per_queue_buffer_eq18(g, s, R - rho);
            assert!((b11 - b18).abs() / b18 < 1e-12, "{b11} vs {b18}");
        }
    }

    #[test]
    fn eq19_is_sum_of_eq18_and_eq17_identity_holds() {
        let groups = table1_groups();
        let rho: f64 = groups.iter().map(|g| g.rho_bps).sum();
        let sigma: f64 = groups.iter().map(|g| g.sigma_bytes).sum();
        let s: f64 = groups.iter().map(|g| g.s_term()).sum();
        let b19 = hybrid_buffer_eq19(R, &groups);
        let sum18: f64 = groups
            .iter()
            .map(|g| per_queue_buffer_eq18(g, s, R - rho))
            .sum();
        assert!((b19 - sum18).abs() / b19 < 1e-12);
        // Eq 17 = Eq 13 − Eq 19.
        let savings = buffer_savings_eq17(R, &groups);
        let direct = single_fifo_buffer_eq13(R, sigma, rho) - b19;
        assert!((savings - direct).abs() / direct.max(1.0) < 1e-9);
        // And matches the pairwise (i<j) Cauchy–Schwarz form.
        let mut pairwise = 0.0;
        for i in 0..groups.len() {
            for j in (i + 1)..groups.len() {
                let d = (groups[i].sigma_bytes * groups[j].rho_bps).sqrt()
                    - (groups[j].sigma_bytes * groups[i].rho_bps).sqrt();
                pairwise += d * d;
            }
        }
        pairwise /= R - rho;
        assert!((savings - pairwise).abs() / savings.max(1.0) < 1e-9);
    }

    #[test]
    fn proportional_split_recovers_single_fifo() {
        // αᵢ = ρ̂ᵢ/ρ gives no savings (paper's observation before Prop 3).
        let groups = table1_groups();
        let rho: f64 = groups.iter().map(|g| g.rho_bps).sum();
        let sigma: f64 = groups.iter().map(|g| g.sigma_bytes).sum();
        let alphas: Vec<f64> = groups.iter().map(|g| g.rho_bps / rho).collect();
        let rates = rate_assignment_eq16(R, &groups, &alphas);
        // Proportional split only collapses to the single-FIFO formula
        // when all groups share the same σ̂/ρ̂ ratio; test with clones.
        let uniform = vec![groups[0]; 3];
        let rho_u = 3.0 * groups[0].rho_bps;
        let sigma_u = 3.0 * groups[0].sigma_bytes;
        let alphas_u = vec![1.0 / 3.0; 3];
        let rates_u = rate_assignment_eq16(R, &uniform, &alphas_u);
        let total_u: f64 = uniform
            .iter()
            .zip(&rates_u)
            .map(|(g, r)| queue_buffer_eq11(g, *r))
            .sum();
        let b13_u = single_fifo_buffer_eq13(R, sigma_u, rho_u);
        assert!((total_u - b13_u).abs() / b13_u < 1e-12);
        // For non-uniform groups proportional is strictly worse than optimal.
        let total_prop: f64 = groups
            .iter()
            .zip(&rates)
            .map(|(g, r)| queue_buffer_eq11(g, *r))
            .sum();
        let b19 = hybrid_buffer_eq19(R, &groups);
        assert!(total_prop >= b19 - 1e-6);
        let _ = sigma; // silence unused in case of refactor
    }

    #[test]
    fn single_flow_queue_uses_footnote6() {
        let g = GroupProfile {
            sigma_bytes: 1000.0,
            rho_bps: 1e6,
            n_flows: 1,
        };
        assert_eq!(queue_buffer_eq11(&g, 2e6), 1000.0);
    }

    #[test]
    fn grouping_profiles_and_members() {
        let specs: Vec<FlowSpec> = (0..4).map(|i| spec(i, 1.0, 10)).collect();
        let g = Grouping::new(vec![0, 1, 0, 1], 2);
        let p = g.profiles(&specs);
        assert_eq!(p[0].n_flows, 2);
        assert_eq!(p[0].rho_bps, 2e6);
        assert_eq!(g.members(), vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    #[should_panic(expected = "no flows")]
    fn empty_queue_rejected() {
        let _ = Grouping::new(vec![0, 0], 2);
    }

    #[test]
    fn contiguous_dp_matches_exhaustive_on_table1() {
        let mut specs: Vec<FlowSpec> = Vec::new();
        for i in 0..3 {
            specs.push(spec(i, 2.0, 50));
        }
        for i in 3..6 {
            specs.push(spec(i, 8.0, 100));
        }
        specs.push(spec(6, 0.4, 50));
        specs.push(spec(7, 0.4, 50));
        specs.push(spec(8, 2.0, 50));
        for k in 1..=4 {
            let dp = Grouping::optimize_contiguous(&specs, k);
            let ex = Grouping::optimize_exhaustive(&specs, k);
            let b_dp = dp.total_buffer(&specs, R);
            let b_ex = ex.total_buffer(&specs, R);
            assert!(
                (b_dp - b_ex).abs() / b_ex < 1e-9,
                "k={k}: dp {b_dp} vs exhaustive {b_ex}"
            );
        }
    }

    #[test]
    fn more_queues_never_hurt() {
        let specs: Vec<FlowSpec> = (0..8)
            .map(|i| spec(i, 0.5 + i as f64, 10 + 20 * i as u64))
            .collect();
        let mut prev = f64::INFINITY;
        for k in 1..=6 {
            let g = Grouping::optimize_contiguous(&specs, k);
            let b = g.total_buffer(&specs, R);
            assert!(b <= prev + 1e-6, "k={k} worsened: {b} > {prev}");
            prev = b;
        }
    }

    proptest! {
        /// Prop 3 really is the minimizer: any perturbed feasible α does
        /// no better than Eq. 14 (checks the paper's variational proof).
        #[test]
        fn eq14_minimizes_buffer(
            sigmas in proptest::collection::vec(1.0f64..500_000.0, 2..5),
            rhos_mbps in proptest::collection::vec(0.1f64..10.0, 2..5),
            perturb in proptest::collection::vec(-0.2f64..0.2, 2..5),
        ) {
            let k = sigmas.len().min(rhos_mbps.len()).min(perturb.len());
            let groups: Vec<GroupProfile> = (0..k).map(|i| GroupProfile {
                sigma_bytes: sigmas[i],
                rho_bps: rhos_mbps[i] * 1e6,
                n_flows: 2,
            }).collect();
            let rho: f64 = groups.iter().map(|g| g.rho_bps).sum();
            prop_assume!(rho < 0.95 * R);
            let opt = optimal_alphas(&groups);
            // Perturb and renormalize, keeping all αᵢ > 0.
            let mut alt: Vec<f64> = opt.iter().zip(&perturb[..k])
                .map(|(a, d)| (a + d).max(1e-3)).collect();
            let s: f64 = alt.iter().sum();
            for a in &mut alt { *a /= s; }
            let cost = |alphas: &[f64]| -> f64 {
                let rates = rate_assignment_eq16(R, &groups, alphas);
                groups.iter().zip(&rates).map(|(g, r)| queue_buffer_eq11(g, *r)).sum()
            };
            prop_assert!(cost(&opt) <= cost(&alt) + 1e-6);
        }

        /// Eq. 17 savings are non-negative for any grouping and any flow mix.
        #[test]
        fn savings_nonnegative(
            sigmas in proptest::collection::vec(1.0f64..500_000.0, 1..6),
            rhos_mbps in proptest::collection::vec(0.1f64..8.0, 1..6),
        ) {
            let k = sigmas.len().min(rhos_mbps.len());
            let groups: Vec<GroupProfile> = (0..k).map(|i| GroupProfile {
                sigma_bytes: sigmas[i],
                rho_bps: rhos_mbps[i] * 1e6,
                n_flows: 2,
            }).collect();
            let rho: f64 = groups.iter().map(|g| g.rho_bps).sum();
            prop_assume!(rho < 0.95 * R);
            prop_assert!(buffer_savings_eq17(R, &groups) >= -1e-9);
        }
    }
}

/// Smallest number of queues `k` whose optimally-grouped hybrid fits a
/// buffer budget of `budget_bytes` — the practical sizing question §4
/// leaves open ("the choice of a given number of queues is primarily
/// dictated by the implementation complexity that can be tolerated").
///
/// Returns `None` if even `k = specs.len()` (pure per-flow WFQ, where
/// each queue needs only σ̂ by footnote 6 — i.e. Σσ total) exceeds the
/// budget.
pub fn min_queues_for_budget(
    specs: &[crate::flow::FlowSpec],
    r_bps: f64,
    budget_bytes: f64,
) -> Option<usize> {
    let sum_sigma: f64 = specs.iter().map(|s| s.bucket_bytes as f64).sum();
    if sum_sigma > budget_bytes {
        return None; // even ideal per-flow WFQ cannot fit
    }
    for k in 1..=specs.len() {
        let g = Grouping::optimize_contiguous(specs, k);
        // Exact objective incl. footnote 6 for single-flow queues.
        let total: f64 = {
            let profiles = g.profiles(specs);
            let rho: f64 = profiles.iter().map(|p| p.rho_bps).sum();
            if rho >= r_bps {
                f64::INFINITY
            } else {
                let alphas = optimal_alphas(&profiles);
                let rates = rate_assignment_eq16(r_bps, &profiles, &alphas);
                profiles
                    .iter()
                    .zip(&rates)
                    .map(|(p, r)| queue_buffer_eq11(p, *r))
                    .sum()
            }
        };
        if total <= budget_bytes {
            return Some(k);
        }
    }
    Some(specs.len())
}

#[cfg(test)]
mod budget_tests {
    use super::*;
    use crate::flow::{FlowId, FlowSpec};
    use crate::units::Rate;

    fn mix() -> Vec<FlowSpec> {
        (0..8)
            .map(|i| {
                FlowSpec::builder(FlowId(i))
                    .token_rate(Rate::from_mbps(0.5 + i as f64))
                    .bucket(10_240 + 20_480 * i as u64)
                    .build()
            })
            .collect()
    }

    #[test]
    fn generous_budget_needs_one_queue() {
        let specs = mix();
        let b13 = single_fifo_buffer_eq13(
            48e6,
            specs.iter().map(|s| s.bucket_bytes as f64).sum(),
            specs.iter().map(|s| s.token_rate.bps() as f64).sum(),
        );
        assert_eq!(min_queues_for_budget(&specs, 48e6, b13 * 1.01), Some(1));
    }

    #[test]
    fn tighter_budgets_need_more_queues() {
        let specs = mix();
        let sigma: f64 = specs.iter().map(|s| s.bucket_bytes as f64).sum();
        let b13 = single_fifo_buffer_eq13(
            48e6,
            sigma,
            specs.iter().map(|s| s.token_rate.bps() as f64).sum(),
        );
        // Between Σσ and B_FIFO, some finite k suffices and k grows as
        // the budget shrinks.
        let k_mid = min_queues_for_budget(&specs, 48e6, (sigma + b13) / 2.0).unwrap();
        assert!(k_mid >= 1 && k_mid <= specs.len());
        let k_tight = min_queues_for_budget(&specs, 48e6, sigma * 1.05).unwrap();
        assert!(k_tight >= k_mid, "k_tight {k_tight} < k_mid {k_mid}");
        // Below Σσ nothing fits.
        assert_eq!(min_queues_for_budget(&specs, 48e6, sigma * 0.5), None);
    }
}
