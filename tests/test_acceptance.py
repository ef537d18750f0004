"""End-to-end acceptance gate: eight criteria, one pass/fail line each.

Every test prints a single ``[criterion N] PASS/FAIL: ...`` summary line
and then asserts, so the verdict survives both in captured output and in
the pytest report.  Numeric targets are published reference values; the
tolerances come from the stated acceptance windows, not from the
observed runs.

Fitted bundles and nuisance tables are cached under a shared hash-keyed
directory, so reruns skip the expensive training stages while every
reported rate is still recomputed from fresh validation draws.  Point
DEEPTEST_ACCEPT_CACHE at an empty directory for a fully cold run.
"""

import io
import os
import tempfile
import time

import numpy as np
import pytest

import oracles
from deeptest import pipeline
from deeptest.classical import z_decisions
from deeptest.harness import (
    METRIC_ASN,
    METRIC_POWER,
    METRIC_TYPE_I,
    CacheStore,
    ExperimentConfig,
    Sizes,
    _point_label,
    fit_test,
    load_config,
    packaged_config,
    reference_values,
    reproduce,
    run_experiment,
)
from deeptest.nnet import HEAD_CLASSIFIER, HEAD_REGRESSOR, NetworkSpec, TrainConfig
from deeptest.nnet import load as load_network
from deeptest.nnet import save as save_network
from deeptest.pipeline import (
    CandidatePool,
    calibrate_constant_cutoff,
    decide_batch,
    load_bundle,
    save_bundle,
)
from deeptest.scenarios import adaptive_scenario, summary_draws
from deeptest.ssr import DesignParams, conditional_power, proportion_stat
from deeptest.stats import empirical_upper_quantile
from deeptest.streams import RandomStream

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="module")
def accept_cache():
    root = os.environ.get("DEEPTEST_ACCEPT_CACHE") or os.path.join(
        tempfile.gettempdir(), "deeptest-acceptance-cache"
    )
    return CacheStore(root)


def _csv_text(table) -> str:
    buffer = io.StringIO()
    table.to_csv(buffer)
    return buffer.getvalue()


def _gate(criterion: int, problems: list, detail: str) -> None:
    status = "FAIL" if problems else "PASS"
    body = "; ".join(problems) if problems else detail
    line = f"[criterion {criterion}] {status}: {body}"
    print(line)
    assert not problems, line


# --------------------------------------------------- criterion 1: known sigma


def test_criterion_1_known_sigma_reproduction(accept_cache):
    t0 = time.time()
    refs = reference_values("T4")
    problems = []
    type_is, power_errs, agreements = [], [], []
    for config in load_config(packaged_config("table4.cfg")):
        spec = config.scenario
        mu0 = spec.null_params[0]
        mu1 = spec.alt_params[0]
        (sigma,) = spec.nuisance_grid
        prefix = f"n={spec.n},sigma={sigma:g}"
        if config.sizes != Sizes(b0=50_000, b1=50_000, b_prime=100_000, b_val=200_000):
            problems.append(f"{prefix}: unexpected shipped sizes {config.sizes}")
        table, test = run_experiment(config, workers=1, cache=accept_cache)

        ti = table.value(f"mu={mu0:g}", "dnn", METRIC_TYPE_I)
        type_is.append(ti)
        if abs(ti - 0.05) > 0.005:
            problems.append(f"{prefix}: type I {ti:.4f} outside 0.050 +/- 0.005")
        power = table.value(f"mu={mu1:g}", "dnn", METRIC_POWER)
        ref = refs[(f"{prefix},mu={mu1:g}", "dnn", METRIC_POWER)]
        power_errs.append(abs(power - ref))
        if abs(power - ref) > 0.015:
            problems.append(
                f"{prefix}: power {power:.4f} more than 0.015 from reference {ref:.3f}"
            )
        for mu in (mu0, mu1):
            gen = RandomStream(seed=config.seed).child(11).generator()
            means, _ = summary_draws(gen, mu, sigma, spec.n, 50_000)
            dnn = decide_batch(test, means[:, None], None)
            z = z_decisions(means, mu0, sigma, spec.n, config.alpha)
            agree = float(np.mean(dnn == z))
            agreements.append(agree)
            if agree < 0.98:
                problems.append(f"{prefix},mu={mu:g}: z agreement {agree:.4f} < 0.98")
    elapsed = time.time() - t0
    if elapsed > 300.0:
        problems.append(f"runtime {elapsed:.0f}s exceeds 300s single-threaded target")
    _gate(
        1,
        problems,
        f"type I in [{min(type_is):.4f}, {max(type_is):.4f}], "
        f"max |power-ref| {max(power_errs):.4f}, "
        f"min z agreement {min(agreements):.4f}, {elapsed:.0f}s",
    )


# ------------------------------------------------- criterion 2: unknown sigma


def test_criterion_2_unknown_sigma_reproduction(accept_cache):
    t0 = time.time()
    problems = []
    type_is, power_gaps = [], []
    null_count = 0
    for config in load_config(packaged_config("table5.cfg")):
        spec = config.scenario
        mu0 = spec.null_params[0]
        prefix = f"n={spec.n}"
        off_grid = [
            p["sigma"]
            for p in config.validation_points
            if p["mu"] == mu0 and p["sigma"] not in spec.nuisance_grid
        ]
        if 1.5 not in off_grid:
            problems.append(f"{prefix}: sigma=1.5 off-grid null point missing")
        table, _ = run_experiment(config, workers=1, cache=accept_cache)
        for point in config.validation_points:
            label = _point_label(point)
            if point["mu"] == mu0:
                null_count += 1
                ti = table.value(label, "dnn", METRIC_TYPE_I)
                type_is.append(ti)
                if abs(ti - 0.05) > 0.005:
                    problems.append(
                        f"{prefix},{label}: type I {ti:.4f} outside 0.050 +/- 0.005"
                    )
            else:
                dnn = table.value(label, "dnn", METRIC_POWER)
                tt = table.value(label, "t", METRIC_POWER)
                power_gaps.append(abs(dnn - tt))
                if abs(dnn - tt) > 0.015:
                    problems.append(
                        f"{prefix},{label}: DNN power {dnn:.4f} more than 0.015 "
                        f"from t-test power {tt:.4f} on the same draws"
                    )
    if null_count != 6:
        problems.append(f"expected six type I rows, found {null_count}")
    elapsed = time.time() - t0
    if elapsed > 900.0:
        problems.append(f"runtime {elapsed:.0f}s exceeds 900s target")
    _gate(
        2,
        problems,
        f"6 type I rows in [{min(type_is):.4f}, {max(type_is):.4f}], "
        f"max |DNN-t| power gap {max(power_gaps):.4f}, {elapsed:.0f}s",
    )


# ------------------------------------------------ criterion 3: Behrens-Fisher


def test_criterion_3_behrens_fisher_reproduction(accept_cache):
    t0 = time.time()
    problems = []
    type_is, power_gaps = [], []
    (config,) = load_config(packaged_config("table6.cfg"))
    table, _ = run_experiment(config, workers=1, cache=accept_cache)
    nulls = [p for p in config.validation_points if p["mu_t"] == p["mu_p"]]
    alts = [p for p in config.validation_points if p["mu_t"] != p["mu_p"]]
    pairs = {(p["sigma_p"], p["sigma_t"]) for p in nulls}
    expected = {(0.95, 0.95), (0.95, 1.1), (1.1, 0.95), (1.1, 1.1)}
    if pairs != expected:
        problems.append(f"null sigma pairs {sorted(pairs)} != {sorted(expected)}")
    for point in nulls:
        label = _point_label(point)
        ti = table.value(label, "dnn", METRIC_TYPE_I)
        type_is.append(ti)
        if abs(ti - 0.05) > 0.005:
            problems.append(f"{label}: type I {ti:.4f} outside 0.050 +/- 0.005")
    for point in alts:
        label = _point_label(point)
        dnn = table.value(label, "dnn", METRIC_POWER)
        welch = table.value(label, "welch", METRIC_POWER)
        power_gaps.append(abs(dnn - welch))
        if abs(dnn - welch) > 0.015:
            problems.append(
                f"{label}: DNN power {dnn:.4f} more than 0.015 from "
                f"Welch power {welch:.4f} on the same draws"
            )
    elapsed = time.time() - t0
    if elapsed > 1200.0:
        problems.append(f"runtime {elapsed:.0f}s exceeds 1200s target")
    _gate(
        3,
        problems,
        f"type I in [{min(type_is):.4f}, {max(type_is):.4f}] at 4 sigma pairs, "
        f"max |DNN-Welch| power gap {max(power_gaps):.4f} over {len(alts)} rows, "
        f"{elapsed:.0f}s",
    )


# ------------------------------------------- criterion 4: adaptive trial runs


NULL_LABELS = [f"pi_p={r:g},pi_t={r:g}" for r in (0.17, 0.22, 0.27, 0.32, 0.37)]
ALT13_LABEL = "pi_p=0.27,pi_t=0.4"


def test_criterion_4_adaptive_calibration_and_asn(accept_cache):
    t0 = time.time()
    problems = []
    table = reproduce("T1", scale=0.1, workers=8, cache=accept_cache)
    type_is = []
    for label in NULL_LABELS:
        for method, half_width in (("dnn", 0.006), ("incta", 0.006)):
            ti = table.value(label, method, METRIC_TYPE_I)
            type_is.append(ti)
            if abs(ti - 0.05) > half_width:
                problems.append(
                    f"{label}: {method} type I {ti:.4f} outside 0.050 +/- {half_width}"
                )
        bm = table.value(label, "bm", METRIC_TYPE_I)
        if bm > 0.056:
            problems.append(f"{label}: bm type I {bm:.4f} > 0.056")
    dnn_power = table.value(ALT13_LABEL, "dnn", METRIC_POWER)
    incta_power = table.value(ALT13_LABEL, "incta", METRIC_POWER)
    gap = dnn_power - incta_power
    if gap < 0.03:
        problems.append(
            f"DNN-INCTA power gap {gap:.4f} < 0.03 at delta=0.13 "
            f"(dnn {dnn_power:.4f}, incta {incta_power:.4f})"
        )
    asn_alt = table.value(ALT13_LABEL, "design", METRIC_ASN)
    if not 223.0 <= asn_alt <= 231.0:
        problems.append(f"ASN {asn_alt:.1f} at delta=0.13 outside 227 +/- 4")
    asn_null = table.value("pi_p=0.27,pi_t=0.27", "design", METRIC_ASN)
    if not 399.0 <= asn_null <= 407.0:
        problems.append(f"ASN {asn_null:.1f} at the null outside 403 +/- 4")
    elapsed = time.time() - t0
    if elapsed > 2700.0:
        problems.append(f"runtime {elapsed:.0f}s exceeds 2700s target with 8 workers")
    _gate(
        4,
        problems,
        f"type I in [{min(type_is):.4f}, {max(type_is):.4f}] over 5 nulls, "
        f"power gap {gap:.4f}, ASN {asn_alt:.1f}/{asn_null:.1f}, {elapsed:.0f}s",
    )


# ------------------------------------------- criterion 5: ASN for 90% power


def test_criterion_5_asn_ordering(accept_cache):
    t0 = time.time()
    problems = []
    table = reproduce("T2", scale=0.1, workers=1, cache=accept_cache)

    def asn_of(method: str) -> float:
        rows = [
            r
            for r in table.rows
            if r.method == method
            and r.metric == METRIC_ASN
            and r.point.startswith(ALT13_LABEL)
        ]
        if len(rows) != 1:
            problems.append(f"{method}: expected one ASN row, found {len(rows)}")
            return float("nan")
        if rows[0].point.endswith("n2_max=unreachable"):
            problems.append(f"{method}: 90% power unreachable at the search cap")
        return rows[0].value

    dnn, bm, incta = asn_of("dnn"), asn_of("bm"), asn_of("incta")
    if not dnn < bm < incta:
        problems.append(f"ordering violated: dnn {dnn:.1f}, bm {bm:.1f}, incta {incta:.1f}")
    if not abs(dnn - 189.0) <= 0.08 * 189.0:
        problems.append(f"DNN ASN {dnn:.1f} outside 189 +/- 8%")
    elapsed = time.time() - t0
    _gate(
        5,
        problems,
        f"ASN dnn {dnn:.1f} < bm {bm:.1f} < incta {incta:.1f}, "
        f"dnn within 8% of 189, {elapsed:.0f}s",
    )


# ------------------------------------------ criterion 6: second design point


def test_criterion_6_alternate_design_spot_check(accept_cache):
    t0 = time.time()
    problems = []
    table = reproduce("T3", scale=0.1, workers=1, cache=accept_cache)
    type_is = []
    for label in NULL_LABELS:
        for method in ("dnn", "incta"):
            ti = table.value(label, method, METRIC_TYPE_I)
            type_is.append(ti)
            if abs(ti - 0.05) > 0.006:
                problems.append(
                    f"{label}: {method} type I {ti:.4f} outside 0.050 +/- 0.006"
                )
    dnn_power = table.value(ALT13_LABEL, "dnn", METRIC_POWER)
    incta_power = table.value(ALT13_LABEL, "incta", METRIC_POWER)
    gap = dnn_power - incta_power
    if gap < 0.03:
        problems.append(
            f"DNN-INCTA power gap {gap:.4f} < 0.03 at delta=0.13 "
            f"(dnn {dnn_power:.4f}, incta {incta_power:.4f})"
        )
    elapsed = time.time() - t0
    _gate(
        6,
        problems,
        f"type I in [{min(type_is):.4f}, {max(type_is):.4f}], "
        f"power gap {gap:.4f}, {elapsed:.0f}s",
    )


# ---------------------------------------------- criterion 7: property suites


def _tiny_adaptive_config(seed: int = 424_242) -> ExperimentConfig:
    design = DesignParams(
        n1=12, n2_min=5, n2_max=60, cep_target=0.8, gamma=0.001, alpha=0.05,
    )
    sizes = Sizes(b0=4000, b1=4000, b_prime=4000, b_val=4000)
    spec = adaptive_scenario(
        pi_p_grid=(0.20, 0.30, 0.40), n1=12,
        b0=sizes.b0, b1=sizes.b1, l=21, b_prime=sizes.b_prime,
    )
    return ExperimentConfig(
        scenario=spec,
        first_pool=CandidatePool(specs=(NetworkSpec(input_dim=3, hidden_layers=(10, 10)),)),
        first_train=TrainConfig(epochs=8, batch_size=200),
        sizes=sizes,
        seed=seed,
        validation_points=(
            {"pi_p": 0.3, "pi_t": 0.3},
            {"pi_p": 0.3, "pi_t": 0.62},
        ),
        design=design,
        second_pool=CandidatePool(
            specs=(NetworkSpec(input_dim=1, hidden_layers=(30, 30), head=HEAD_REGRESSOR),)
        ),
        second_train=TrainConfig(epochs=600, batch_size=10),
        comparators=("incta", "bm"),
    )


def test_criterion_7_property_suites(accept_cache, tmp_path):
    t0 = time.time()
    problems = []

    # Gradient check on every candidate structure of both default pools:
    # statistic nets of depths {2, 4} x widths {10, 40}, critical nets of
    # depths {2, 3} x widths {30, 40, 50}.
    max_grad_err = 0.0
    pools = [(HEAD_CLASSIFIER, d, (2, 4), (10, 40)) for d in (1, 2, 3)]
    pools += [(HEAD_REGRESSOR, d, (2, 3), (30, 40, 50)) for d in (1, 2)]
    for head, input_dim, depths, widths in pools:
        for depth in depths:
            for width in widths:
                spec = NetworkSpec(
                    input_dim=input_dim, hidden_layers=(width,) * depth, head=head,
                    dropout_rate=0.1,
                )
                features = np.linspace(0.15, 0.85, input_dim)
                label = 1.0 if head != HEAD_REGRESSOR else 0.4
                err = oracles.gradient_check(spec, features, label, seed=2026)
                max_grad_err = max(max_grad_err, err)
                if err >= 1e-5:
                    problems.append(
                        f"gradient check {err:.2e} >= 1e-5 for layers {spec.hidden_layers} "
                        f"({head}, input_dim {input_dim})"
                    )

    # Empirical upper quantile agrees exactly with the sort oracle.
    gen = np.random.Generator(np.random.Philox(key=20_240))
    for size, alpha in ((999, 0.05), (1000, 0.05), (1001, 0.05), (573, 0.10), (12_345, 0.025)):
        values = gen.normal(size=size)
        ours = empirical_upper_quantile(values, alpha)
        ref = oracles.upper_quantile_by_sort(values, alpha)
        if ours != ref:
            problems.append(f"quantile mismatch at (B'={size}, alpha={alpha})")

    # Gauss-Jacobi CEP tracks the Gauss-Legendre quadrature oracle.
    max_cep_err = 0.0
    cep_cases = (
        (0.0, 120, (54.0, 146.0), (54.0, 146.0)),
        (1.2, 60, (40.0, 60.0), (27.0, 73.0)),
        (2.0, 200, (8.0, 12.0), (6.0, 14.0)),
        (-0.5, 90, (3.0, 7.0), (3.0, 7.0)),
    )
    for m1, n2, prior_t, prior_p in cep_cases:
        cep = oracles.library_cep(m1, 85, n2, prior_t, prior_p, 0.05)
        quad = oracles.cep_gauss_legendre(
            lambda pt, pp: conditional_power(m1, 85, n2, pt, pp, 0.05), prior_t, prior_p
        )
        max_cep_err = max(max_cep_err, abs(cep - quad))
        if abs(cep - quad) > 1e-8:
            problems.append(f"CEP off quadrature by {abs(cep - quad):.2e} at m1={m1}, n2={n2}")

    # Conditional power limits: equal rates give alpha, a real drift gives 1.
    cp_null = conditional_power(0.0, 85, 1e8, 0.27, 0.27, 0.05)
    if abs(cp_null - 0.05) > 1e-3:
        problems.append(f"CP null limit {cp_null:.5f} not within 1e-3 of alpha")
    cp_alt = conditional_power(0.0, 85, 1e8, 0.40, 0.27, 0.05)
    if abs(cp_alt - 1.0) > 1e-3:
        problems.append(f"CP alternative limit {cp_alt:.5f} not within 1e-3 of 1")

    # Swapping the arms negates the pooled proportion statistic exactly.
    xp, xt = np.meshgrid(np.arange(86), np.arange(86), indexing="ij")
    forward_stat = proportion_stat(xp.ravel(), xt.ravel(), 85)
    backward_stat = proportion_stat(xt.ravel(), xp.ravel(), 85)
    if not np.array_equal(forward_stat, -backward_stat):
        problems.append("arm-swap antisymmetry violated")

    # Serialization round trip is bit-exact at both bundle and network level.
    config = _tiny_adaptive_config()
    out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
    table_a, test_a = run_experiment(config, workers=1, out_dir=out_a)
    doc = save_bundle(test_a)
    if save_bundle(load_bundle(doc)) != doc:
        problems.append("bundle serialization round trip not bit-exact")
    net_doc = save_network(test_a.statistic_net)
    if save_network(load_network(net_doc)) != net_doc:
        problems.append("network serialization round trip not bit-exact")

    # End-to-end determinism: identical artifacts across runs and workers.
    table_b, _ = run_experiment(config, workers=1, out_dir=out_b)
    for name in ("results.csv", "bundle.json"):
        if (out_a / name).read_bytes() != (out_b / name).read_bytes():
            problems.append(f"{name} differs between identical runs")
    table_w8, _ = run_experiment(config, workers=8)
    if _csv_text(table_w8) != _csv_text(table_a):
        problems.append("results differ between worker counts 1 and 8")

    elapsed = time.time() - t0
    _gate(
        7,
        problems,
        f"max gradient err {max_grad_err:.2e}, quantile exact, "
        f"max CEP err {max_cep_err:.1e}, CP limits ok, antisymmetry exact, "
        f"round trips bit-exact, determinism bit-exact (2 runs, workers 1 vs 8), "
        f"{elapsed:.0f}s",
    )


# ------------------------------------------------ criterion 8: UMP equivalence


def test_criterion_8_ump_equivalence(accept_cache):
    t0 = time.time()
    problems = []
    configs = load_config(packaged_config("table4.cfg"))
    config = next(
        c for c in configs if c.scenario.n == 50 and c.scenario.alt_params[0] == 0.414
    )
    test, _ = fit_test(config, workers=1, cache=accept_cache)
    spec = test.scenario
    mu0 = spec.null_params[0]
    (sigma,) = spec.nuisance_grid
    se = sigma / np.sqrt(spec.n)

    grid = np.linspace(mu0 - 5.0 * se, mu0 + 5.0 * se, 2001)
    values = pipeline._statistic_values(test.statistic_net, grid[:, None])
    if values[-1] <= values[0]:
        problems.append("statistic is not increasing in the sample mean")
    steps = np.diff(values)
    violation_rate = float(np.mean(steps < 0.0))
    if violation_rate > 0.01:
        problems.append(f"monotone-sweep violation rate {violation_rate:.4f} > 0.01")

    cutoff = calibrate_constant_cutoff(
        test.statistic_net, spec, 1_000_000, config.alpha, RandomStream(seed=config.seed).child(12)
    ).value

    def statistic(mean: float) -> float:
        return float(pipeline._statistic_values(test.statistic_net, np.array([[mean]]))[0])

    lo, hi = mu0, mu0 + 5.0 * se
    offset = float("nan")
    if not statistic(lo) < cutoff < statistic(hi):
        problems.append("cutoff not bracketed by the statistic over the sweep range")
    else:
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if statistic(mid) > cutoff:
                hi = mid
            else:
                lo = mid
        mean_threshold = 0.5 * (lo + hi)
        analytic = mu0 + sigma * oracles.normal_quantile_quadrature(1.0 - config.alpha) / np.sqrt(spec.n)
        if abs(mean_threshold - analytic) > 0.01 * se:
            problems.append(
                f"mean threshold {mean_threshold:.5f} more than 0.01*sigma/sqrt(n) "
                f"from analytic {analytic:.5f}"
            )
        offset = abs(mean_threshold - analytic) / se
    elapsed = time.time() - t0
    _gate(
        8,
        problems,
        f"violation rate {violation_rate:.4f}, threshold offset {offset:.4f} "
        f"of sigma/sqrt(n) from the analytic cutoff, {elapsed:.0f}s",
    )
