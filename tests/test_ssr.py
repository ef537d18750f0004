"""Tests for the adaptive two-stage design: CP/CEP math, reassessment,
trial simulation, and the INCTA/BM comparators.

Monte Carlo assertions use >=4 standard-error margins unless a published
anchor dictates a wider band.
"""

import math

import numpy as np
import pytest

from deeptest import ssr
from deeptest.stats import beta_from_moments, normal_quantile
from deeptest.streams import RandomStream

from oracles import cep_gauss_legendre

MUSEC = ssr.DesignParams()
ROOT = RandomStream(seed=777)

# published operating characteristics of the reference design
# (per-group expected sample size n1 + E[n2])
ASN_NULL_027 = 403.0
ASN_ALT = 227.0
ASN_TOL = 4.0
PI_T_ALT = 0.40


# ---------------------------------------------------------------- containers


def test_design_params_validation():
    with pytest.raises(ValueError):
        ssr.DesignParams(n1=0)
    with pytest.raises(ValueError):
        ssr.DesignParams(n2_min=50, n2_max=40)
    with pytest.raises(ValueError):
        ssr.DesignParams(cep_target=1.0)
    with pytest.raises(ValueError):
        ssr.DesignParams(gamma=0.0)
    with pytest.raises(ValueError):
        ssr.DesignParams(alpha=0.5)


def test_trial_path_validation():
    good = ssr.TrialPath(x_p1=10, x_t1=20, n2=100, x_p2=30, x_t2=40)
    good.validate(MUSEC)
    with pytest.raises(ValueError):
        ssr.TrialPath(x_p1=86, x_t1=20, n2=100, x_p2=30, x_t2=40).validate(MUSEC)
    with pytest.raises(ValueError):
        ssr.TrialPath(x_p1=10, x_t1=20, n2=20, x_p2=5, x_t2=5).validate(MUSEC)
    with pytest.raises(ValueError):
        ssr.TrialPath(x_p1=10, x_t1=20, n2=100, x_p2=101, x_t2=40).validate(MUSEC)


# ---------------------------------------------------------- proportion stat


def test_proportion_stat_hand_anchor():
    # [DERIVED] x_p=27, x_t=40, n=100: pooled=0.335,
    # stat = 0.13 / sqrt(2*0.335*0.665/100)
    expected = 0.13 / math.sqrt(2.0 * 0.335 * 0.665 / 100.0)
    assert ssr.proportion_stat(27, 40, 100) == pytest.approx(expected, abs=1e-14)
    assert expected == pytest.approx(1.9475792028646268, abs=1e-12)


def test_proportion_stat_antisymmetry_exact():
    gen = RandomStream(seed=31).generator()
    xp = gen.integers(0, 86, size=200)
    xt = gen.integers(0, 86, size=200)
    fwd = ssr.proportion_stat(xp, xt, 85)
    rev = ssr.proportion_stat(xt, xp, 85)
    assert np.array_equal(fwd, -rev)


def test_proportion_stat_degenerate_zero():
    assert ssr.proportion_stat(0, 0, 85) == 0.0
    assert ssr.proportion_stat(85, 85, 85) == 0.0


def test_proportion_stat_array_n():
    stat = ssr.proportion_stat(np.array([27, 30]), np.array([40, 50]), np.array([100, 120]))
    assert stat.shape == (2,)
    assert stat[0] == pytest.approx(1.9475792028646268, abs=1e-12)


def test_proportion_stat_rejects_bad_counts():
    with pytest.raises(ValueError):
        ssr.proportion_stat(-1, 3, 85)
    with pytest.raises(ValueError):
        ssr.proportion_stat(3, 86, 85)


# -------------------------------------------------------- conditional power


def test_conditional_power_domain_error():
    with pytest.raises(ValueError):
        ssr.conditional_power(0.0, 85, 100, 0.0, 0.0, 0.05)
    with pytest.raises(ValueError):
        ssr.conditional_power(0.0, 85, 100, 1.0, 1.0, 0.05)


def test_conditional_power_null_limit_is_alpha():
    # [DERIVED] m1=0, pi_t=pi_p: as n2 grows the argument tends to
    # Phi^{-1}(alpha), so CP tends to alpha
    cp = ssr.conditional_power(0.0, 85, 1_000_000, 0.27, 0.27, 0.05)
    assert abs(cp - 0.05) <= 1e-3


def test_conditional_power_alternative_limit_is_one():
    cp = ssr.conditional_power(0.0, 85, 1_000_000, PI_T_ALT, 0.27, 0.05)
    assert cp >= 1.0 - 1e-6


def test_conditional_power_monotone_in_m1_and_effect():
    m1 = np.linspace(-3.0, 3.0, 41)
    cp = ssr.conditional_power(m1, 85, 150, 0.32, 0.27, 0.05)
    assert np.all(np.diff(cp) > 0.0)
    pi_t = np.linspace(0.28, 0.60, 33)
    cp2 = ssr.conditional_power(0.5, 85, 150, pi_t, 0.27, 0.05)
    assert np.all(np.diff(cp2) > 0.0)


def test_conditional_power_bounded():
    gen = RandomStream(seed=77).generator()
    m1 = gen.normal(0.0, 2.0, size=100)
    cp = ssr.conditional_power(m1, 85, 100, 0.35, 0.25, 0.05)
    assert np.all((cp >= 0.0) & (cp <= 1.0))


# ---------------------------------------------- conditional expected power


@pytest.mark.parametrize("prior", [(80.0, 147.0), (2.0, 3.0), (0.5, 0.5), (300.0, 20.0)])
@pytest.mark.parametrize("nodes", [5, ssr.QUAD_NODES, 96])
def test_beta_rule_matches_scipy_roots_jacobi(prior, nodes):
    # Golub-Welsch in numpy against scipy's Jacobi roots (alpha = b - 1,
    # beta = a - 1), mapped to (0, 1) and normalised
    from scipy.special import roots_jacobi

    a, b = prior
    x, w = ssr.beta_rule(a, b, nodes)
    ref_x, ref_w = roots_jacobi(nodes, b - 1.0, a - 1.0)
    assert np.max(np.abs(x - 0.5 * (ref_x + 1.0))) <= 1e-12
    assert np.max(np.abs(w - ref_w / ref_w.sum())) <= 1e-12


def test_beta_rule_exact_on_polynomials_of_a_boundary_prior():
    # the prior of a zero stage-1 count puts most mass next to 0; the rule
    # must still integrate p^j exactly for j < 2 * nodes
    a, b = ssr._stage1_prior(0, MUSEC)
    x, w = ssr.beta_rule(a, b, ssr.QUAD_NODES)
    assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
    for j in range(2 * ssr.QUAD_NODES):
        exact = math.exp(math.lgamma(a + j) + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(a + b + j))
        assert abs(float(np.sum(w * x**j)) - exact) <= 1e-14


def test_cep_matches_quadrature_oracle():
    # dual route: Gauss-Jacobi against 80-node tensor Gauss-Legendre
    prior_t = beta_from_moments(0.32, 0.001)
    prior_p = beta_from_moments(0.27, 0.001)

    def cp(pt, pp):
        return ssr.conditional_power(0.5, 85, 150, pt, pp, 0.05)

    oracle = cep_gauss_legendre(cp, prior_t, prior_p)
    cep = ssr.conditional_expected_power(0.5, 85, 150, prior_t, prior_p, 0.05)
    assert abs(cep - oracle) <= 1e-8


def test_cep_matches_quadrature_oracle_wide_priors():
    prior_t = beta_from_moments(0.40, 0.005)
    prior_p = beta_from_moments(0.27, 0.005)

    def cp(pt, pp):
        return ssr.conditional_power(1.5, 85, 60, pt, pp, 0.05)

    oracle = cep_gauss_legendre(cp, prior_t, prior_p)
    cep = ssr.conditional_expected_power(1.5, 85, 60, prior_t, prior_p, 0.05)
    assert abs(cep - oracle) <= 1e-8


# the four CEP cases of acceptance criterion 7: (m1, n2, prior_t, prior_p)
CRITERION_7_CEP_CASES = (
    (0.0, 120, (54.0, 146.0), (54.0, 146.0)),
    (1.2, 60, (40.0, 60.0), (27.0, 73.0)),
    (2.0, 200, (8.0, 12.0), (6.0, 14.0)),
    (-0.5, 90, (3.0, 7.0), (3.0, 7.0)),
)


@pytest.mark.parametrize("case", CRITERION_7_CEP_CASES)
def test_cep_matches_quadrature_oracle_criterion_7_cases(case):
    m1, n2, prior_t, prior_p = case
    cep = ssr.conditional_expected_power(m1, 85, n2, prior_t, prior_p, 0.05)
    oracle = cep_gauss_legendre(
        lambda pt, pp: ssr.conditional_power(m1, 85, n2, pt, pp, 0.05), prior_t, prior_p
    )
    assert abs(cep - oracle) <= 1e-8


def test_cep_point_mass_priors_collapse_to_cp():
    prior_t = beta_from_moments(0.40, 1e-9)
    prior_p = beta_from_moments(0.27, 1e-9)
    cep = ssr.conditional_expected_power(0.8, 85, 120, prior_t, prior_p, 0.05)
    cp = ssr.conditional_power(0.8, 85, 120, 0.40, 0.27, 0.05)
    assert abs(cep - cp) <= 5e-4


def test_cep_deterministic():
    prior = beta_from_moments(0.3, 0.001)
    a = ssr.conditional_expected_power(0.5, 85, 100, prior, prior, 0.05)
    b = ssr.conditional_expected_power(0.5, 85, 100, prior, prior, 0.05)
    assert a == b


# -------------------------------------------------------------- reassessment


def _reassess_oracle(m1, stage1, design):
    # independent re-derivation: the same prior rule, but the smallest CEP
    # crossing is found by exhaustive scan over every n2, one scalar CEP
    # at a time
    def prior(count):
        lo = 1.0 / (2.0 * design.n1)
        mean = min(max(count / design.n1, lo), 1.0 - lo)
        bound = mean * (1.0 - mean)
        var = design.gamma if design.gamma < bound else 0.9 * bound
        nu = mean * (1.0 - mean) / var - 1.0
        return mean * nu, (1.0 - mean) * nu

    prior_t, prior_p = prior(stage1[1]), prior(stage1[0])
    for n2 in range(design.n2_min, design.n2_max + 1):
        cep = ssr.conditional_expected_power(m1, design.n1, n2, prior_t, prior_p, design.alpha)
        if cep >= design.cep_target:
            return n2
    return design.n2_max


@pytest.mark.parametrize("stage1", [(15, 45), (30, 30), (20, 38), (25, 42), (28, 37), (18, 40)])
def test_reassess_matches_exhaustive_scan(stage1):
    m1 = ssr.proportion_stat(stage1[0], stage1[1], MUSEC.n1)
    assert ssr.reassess_n2(m1, stage1, MUSEC) == _reassess_oracle(m1, stage1, MUSEC)


def test_reassess_non_monotone_cells_match_exhaustive_scan():
    # under the sensitivity design these cells have CEP(n2_min) >
    # CEP(n2_max), so reassessment takes the linear-scan branch
    design = ssr.DesignParams(cep_target=0.75, gamma=0.005)
    for stage1 in ((0, 3), (82, 85)):
        m1 = ssr.proportion_stat(stage1[0], stage1[1], design.n1)
        lo = ssr.conditional_expected_power(
            m1, design.n1, design.n2_min, ssr._stage1_prior(stage1[1], design),
            ssr._stage1_prior(stage1[0], design), design.alpha,
        )
        hi = ssr.conditional_expected_power(
            m1, design.n1, design.n2_max, ssr._stage1_prior(stage1[1], design),
            ssr._stage1_prior(stage1[0], design), design.alpha,
        )
        assert hi < lo < design.cep_target
        assert ssr.reassess_n2(m1, stage1, design) == _reassess_oracle(m1, stage1, design)


def test_reassess_extreme_cells():
    # strongly favorable interim data floors n2; null-like data caps it
    m1 = ssr.proportion_stat(15, 45, MUSEC.n1)
    assert ssr.reassess_n2(m1, (15, 45), MUSEC) == MUSEC.n2_min
    assert ssr.reassess_n2(0.0, (30, 30), MUSEC) == MUSEC.n2_max


def test_reassess_within_bounds_random_cells():
    gen = RandomStream(seed=55).generator()
    for k in range(25):
        xp, xt = int(gen.integers(0, 86)), int(gen.integers(0, 86))
        m1 = ssr.proportion_stat(xp, xt, MUSEC.n1)
        n2 = ssr.reassess_n2(m1, (xp, xt), MUSEC)
        assert MUSEC.n2_min <= n2 <= MUSEC.n2_max


def test_reassess_deterministic():
    m1 = ssr.proportion_stat(22, 39, MUSEC.n1)
    a = ssr.reassess_n2(m1, (22, 39), MUSEC)
    b = ssr.reassess_n2(m1, (22, 39), MUSEC)
    assert a == b


def test_reassess_rejects_bad_stage1():
    with pytest.raises(ValueError):
        ssr.reassess_n2(0.0, (-1, 10), MUSEC)


def test_reassessed_n2_nonincreasing_in_m1(musec_table):
    # within a row of the table, m1 increases with x_t1; CEP is a
    # quadrature, but a small violation rate near the CEP cliff is
    # tolerated
    violations = 0
    total = 0
    for x_p1 in (17, 23, 30, 40):
        row = musec_table[x_p1]
        diffs = np.diff(row.astype(np.int64))
        violations += int(np.sum(diffs > 0))
        total += diffs.size
    assert violations / total <= 0.01


# ------------------------------------------------------------- lookup table

TINY = ssr.DesignParams(n1=12, n2_min=5, n2_max=60)


def test_lookup_table_matches_direct_reassessment():
    table = ssr.n2_lookup_table(TINY)
    side = TINY.n1 + 1
    assert table.shape == (side, side)
    for xp in range(side):
        for xt in range(side):
            m1 = ssr.proportion_stat(xp, xt, TINY.n1)
            assert table[xp, xt] == ssr.reassess_n2(m1, (xp, xt), TINY)


def test_lookup_table_is_seed_free_and_matches_musec_cells(musec_table):
    assert np.array_equal(ssr.n2_lookup_table(MUSEC), musec_table)
    for xp, xt in [(0, 0), (85, 85), (1, 5), (27, 40), (40, 27), (60, 80)]:
        m1 = ssr.proportion_stat(xp, xt, MUSEC.n1)
        assert musec_table[xp, xt] == ssr.reassess_n2(m1, (xp, xt), MUSEC)


def _packaged_designs():
    from deeptest.harness import load_config, packaged_config

    return {
        name: load_config(packaged_config(name))[0].design
        for name in ("musec.cfg", "musec_designs.cfg")
    }


@pytest.mark.parametrize("name", ["musec.cfg", "musec_designs.cfg", "tiny"])
def test_quad_nodes_converged(name, monkeypatch):
    # QUAD_NODES is the smallest count whose tables equal 96-node tables
    # on every design the package ships and on the tests' tiny design
    design = TINY if name == "tiny" else _packaged_designs()[name]
    table = ssr.n2_lookup_table(design)
    monkeypatch.setattr(ssr, "QUAD_NODES", 96)
    assert np.array_equal(table, ssr.n2_lookup_table(design))


def test_table_build_leaves_scipy_linalg_unloaded():
    import subprocess
    import sys

    code = (
        "import sys\n"
        "from deeptest.ssr import DesignParams, n2_lookup_table\n"
        "n2_lookup_table(DesignParams(n1=12, n2_min=5, n2_max=60))\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_capped_table_equals_direct_build():
    # CEP is a fixed function of (cell, n2), so capping n2_max commutes
    # with the smallest-crossing search and the derived table must equal
    # a from-scratch build
    base = ssr.n2_lookup_table(TINY)
    capped_design = ssr.DesignParams(n1=12, n2_min=5, n2_max=30)
    derived = ssr.derive_capped_table(base, capped_design)
    direct = ssr.n2_lookup_table(capped_design)
    assert np.array_equal(derived, direct)


def test_capped_musec_table_equals_direct_build(musec_table):
    # the sample-size search derives every cap from one n2_max = 2048 table
    base = ssr.n2_lookup_table(ssr.DesignParams(n2_max=2048))
    for cap in (60, 200, 340):
        capped = ssr.DesignParams(n2_max=cap)
        assert np.array_equal(ssr.derive_capped_table(base, capped), ssr.n2_lookup_table(capped))
    assert np.array_equal(ssr.derive_capped_table(base, MUSEC), musec_table)


def test_capped_table_rejects_entries_below_min():
    base = np.full((3, 3), 10, dtype=np.int64)
    with pytest.raises(ValueError):
        ssr.derive_capped_table(base, ssr.DesignParams(n1=2, n2_min=20, n2_max=30))


# ------------------------------------------------------------- simulation


def test_simulate_trial_deterministic_and_valid():
    a = ssr.simulate_trial(0.27, 0.35, MUSEC, ROOT.child(10))
    b = ssr.simulate_trial(0.27, 0.35, MUSEC, ROOT.child(10))
    assert a == b
    a.validate(MUSEC)


def test_simulate_trial_zero_rates():
    path = ssr.simulate_trial(0.0, 0.0, MUSEC, ROOT.child(11))
    assert path.x_p1 == path.x_t1 == path.x_p2 == path.x_t2 == 0
    # null-like interim data drives the reassessment to its cap
    assert path.n2 == MUSEC.n2_max


def test_simulate_trial_table_mode_consistent(musec_table):
    path = ssr.simulate_trial(0.27, 0.35, MUSEC, ROOT.child(12), n2_table=musec_table)
    path.validate(MUSEC)
    assert path.n2 == musec_table[path.x_p1, path.x_t1]


def test_simulate_trial_without_table_equals_table_path(musec_table):
    for k, (pi_p, pi_t) in enumerate([(0.27, 0.27), (0.27, 0.40), (0.1, 0.6), (0.5, 0.5)]):
        direct = ssr.simulate_trial(pi_p, pi_t, MUSEC, ROOT.child(100 + k))
        lookup = ssr.simulate_trial(pi_p, pi_t, MUSEC, ROOT.child(100 + k), n2_table=musec_table)
        assert direct == lookup


def test_simulate_trial_rejects_bad_rates():
    with pytest.raises(ValueError):
        ssr.simulate_trial(-0.1, 0.3, MUSEC, ROOT.child(13))
    with pytest.raises(ValueError):
        ssr.simulate_trial(0.3, 1.5, MUSEC, ROOT.child(13))


def test_simulate_trials_deterministic(musec_table):
    a = ssr.simulate_trials(0.27, 0.30, MUSEC, 1000, ROOT.child(14), musec_table)
    b = ssr.simulate_trials(0.27, 0.30, MUSEC, 1000, ROOT.child(14), musec_table)
    for name in ("x_p1", "x_t1", "n2", "x_p2", "x_t2"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_simulate_trials_invariants(musec_table):
    batch = ssr.simulate_trials(0.27, 0.40, MUSEC, 5000, ROOT.child(15), musec_table)
    assert len(batch) == 5000
    assert np.all((batch.x_p1 >= 0) & (batch.x_p1 <= MUSEC.n1))
    assert np.all((batch.n2 >= MUSEC.n2_min) & (batch.n2 <= MUSEC.n2_max))
    assert np.all(batch.x_p2 <= batch.n2) and np.all(batch.x_t2 <= batch.n2)
    feats = batch.statistic_features(MUSEC.n1)
    assert feats.shape == (5000, 3)
    assert np.allclose(feats[:, 0], (batch.x_t1 - batch.x_p1) / MUSEC.n1)
    assert np.allclose(feats[:, 2], batch.n2)
    pooled = batch.pooled_stage1_rate(MUSEC.n1)
    assert np.all((pooled >= 0.0) & (pooled <= 1.0))


def test_asn_null_anchor(musec_table):
    # [PAPER] per-group average sample number under the null at rate 0.27
    batch = ssr.simulate_trials(0.27, 0.27, MUSEC, 200_000, ROOT.child(16), musec_table)
    asn = MUSEC.n1 + float(np.mean(batch.n2))
    assert abs(asn - ASN_NULL_027) <= ASN_TOL


def test_asn_alternative_anchor(musec_table):
    # [PAPER] reassessment shrinks the trial under the design alternative
    batch = ssr.simulate_trials(0.27, PI_T_ALT, MUSEC, 200_000, ROOT.child(17), musec_table)
    asn = MUSEC.n1 + float(np.mean(batch.n2))
    assert abs(asn - ASN_ALT) <= ASN_TOL


def test_asn_flat_across_null_rates(musec_table):
    # the null ASN varies by only a few subjects across the rate grid
    asns = []
    for i, pi in enumerate((0.17, 0.37)):
        batch = ssr.simulate_trials(pi, pi, MUSEC, 100_000, ROOT.child(18 + i), musec_table)
        asns.append(MUSEC.n1 + float(np.mean(batch.n2)))
    assert all(abs(a - ASN_NULL_027) <= 4.0 for a in asns)


# ------------------------------------------------------------- comparators


def test_incta_arithmetic():
    # [DERIVED] both stages reproduce the hand-computed statistic 1.94758,
    # so the equal-weight combination is 1.94758*sqrt(2) = 2.75429
    path = ssr.TrialPath(x_p1=27, x_t1=40, n2=100, x_p2=27, x_t2=40)
    assert ssr.incta_decision(path, 100, 0.05) is True
    assert ssr.incta_decision(path, 100, 0.001) is False


def test_incta_null_path_not_rejected():
    path = ssr.TrialPath(x_p1=30, x_t1=30, n2=200, x_p2=60, x_t2=60)
    assert ssr.incta_decision(path, 85, 0.05) is False


def test_incta_batch_matches_scalar(musec_table):
    batch = ssr.simulate_trials(0.27, 0.35, MUSEC, 500, ROOT.child(20), musec_table)
    vec = ssr.incta_decisions(batch, MUSEC.n1, 0.05)
    for i in range(500):
        path = ssr.TrialPath(
            x_p1=int(batch.x_p1[i]),
            x_t1=int(batch.x_t1[i]),
            n2=int(batch.n2[i]),
            x_p2=int(batch.x_p2[i]),
            x_t2=int(batch.x_t2[i]),
        )
        assert bool(vec[i]) == ssr.incta_decision(path, MUSEC.n1, 0.05)


def test_bm_batch_matches_scalar(musec_table):
    batch = ssr.simulate_trials(0.27, 0.35, MUSEC, 500, ROOT.child(21), musec_table)
    vec = ssr.bm_decisions(batch, MUSEC.n1, 0.033)
    for i in range(500):
        path = ssr.TrialPath(
            x_p1=int(batch.x_p1[i]),
            x_t1=int(batch.x_t1[i]),
            n2=int(batch.n2[i]),
            x_p2=int(batch.x_p2[i]),
            x_t2=int(batch.x_t2[i]),
        )
        assert bool(vec[i]) == ssr.bm_decision(path, MUSEC.n1, 0.033)


def test_incta_type_i_across_null_grid(musec_table):
    # INCTA is exact under reassessment: 5% +- MC margin at every rate
    for i, pi in enumerate((0.17, 0.22, 0.27, 0.32, 0.37)):
        batch = ssr.simulate_trials(pi, pi, MUSEC, 100_000, ROOT.child(30 + i), musec_table)
        rate = float(np.mean(ssr.incta_decisions(batch, MUSEC.n1, 0.05)))
        assert abs(rate - 0.05) <= 0.004, f"pi={pi}: {rate}"


def test_incta_power_at_alternative(musec_table):
    batch = ssr.simulate_trials(0.27, PI_T_ALT, MUSEC, 100_000, ROOT.child(40), musec_table)
    power = float(np.mean(ssr.incta_decisions(batch, MUSEC.n1, 0.05)))
    assert power >= 0.85


def test_bm_unadjusted_level_inflates(musec_table):
    # pooling over a data-dependent n2 inflates the naive test, which is
    # why the BM comparator runs at an adjusted nominal level
    rates = []
    for i, pi in enumerate((0.17, 0.27, 0.37)):
        batch = ssr.simulate_trials(pi, pi, MUSEC, 100_000, ROOT.child(50 + i), musec_table)
        rates.append(float(np.mean(ssr.bm_decisions(batch, MUSEC.n1, 0.05))))
    assert max(rates) > 0.055


def test_bm_adjusted_level_controls_type_i(musec_table):
    rates = []
    for i, pi in enumerate((0.17, 0.27, 0.37)):
        batch = ssr.simulate_trials(pi, pi, MUSEC, 100_000, ROOT.child(50 + i), musec_table)
        rates.append(float(np.mean(ssr.bm_decisions(batch, MUSEC.n1, 0.033))))
    assert max(rates) <= 0.055


def test_calibrate_bm_musec(musec_table):
    # [PAPER] the adjusted nominal level lands near 0.033
    adjusted = ssr.calibrate_bm(
        MUSEC, [0.17, 0.27, 0.37], 0.05, ROOT.child(60), n2_table=musec_table, n_trials=50_000
    )
    assert 0.025 <= adjusted <= 0.042
    # held-out validation: fresh trials at the calibrated level stay near 5%
    checks = []
    for i, pi in enumerate((0.17, 0.27, 0.37)):
        batch = ssr.simulate_trials(pi, pi, MUSEC, 100_000, ROOT.child(70 + i), musec_table)
        checks.append(float(np.mean(ssr.bm_decisions(batch, MUSEC.n1, adjusted))))
    assert max(checks) <= 0.05 + 0.004


def test_calibrate_bm_fixed_n2_design_barely_adjusts():
    # with n2 pinned the pooled test is a plain one-look z test, so the
    # calibrated level stays close to the target
    fixed = ssr.DesignParams(n1=85, n2_min=255, n2_max=255)
    table = np.full((86, 86), 255, dtype=np.int64)
    adjusted = ssr.calibrate_bm(
        fixed, [0.17, 0.27, 0.37], 0.05, ROOT.child(61), n2_table=table, n_trials=50_000
    )
    assert adjusted >= 0.04


def test_calibrate_bm_rejects_empty_grid():
    with pytest.raises(ValueError):
        ssr.calibrate_bm(MUSEC, [], 0.05, ROOT.child(62))
