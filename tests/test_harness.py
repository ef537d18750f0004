"""Tests for the experiment harness and the command line interface:
config parsing and validation, cache coherence, the worker pool,
end-to-end determinism, the sample-size search, heatmap export, the
canned exhibits, and the staged CLI flow."""

import copy
import json
import multiprocessing.pool
import operator
import os
import subprocess
import sys
import threading
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from deeptest import cli, harness, pipeline
from deeptest.harness import (
    CacheStore,
    ExperimentConfig,
    ResultsTable,
    Row,
    Sizes,
    StageError,
    asn_for_power,
    config_hash,
    fit_test,
    heatmap_export,
    load_config,
    packaged_config,
    pmap,
    recalibrate_critical,
    reference_values,
    reproduce,
    run_experiment,
    scaled_config,
    validate,
)
from deeptest.nnet import HEAD_CLASSIFIER, HEAD_REGRESSOR, NetworkSpec, TrainConfig
from deeptest.pipeline import CandidatePool
from deeptest.scenarios import adaptive_scenario, behrens_fisher_scenario, known_sigma_scenario
from deeptest.ssr import DesignParams, TrialBatch, derive_capped_table, simulate_trials
from deeptest.streams import RandomStream

TINY_DESIGN = DesignParams(
    n1=12, n2_min=5, n2_max=60, cep_target=0.8, gamma=0.001, alpha=0.05
)


def tiny_known_config(seed=91):
    sizes = Sizes(b0=8000, b1=8000, b_prime=20000, b_val=20000)
    spec = known_sigma_scenario(
        mu0=0.0, mu1=0.414, sigma=1.0, n=50, b0=sizes.b0, b1=sizes.b1, b_prime=sizes.b_prime
    )
    return ExperimentConfig(
        scenario=spec,
        first_pool=CandidatePool(specs=(NetworkSpec(input_dim=1, hidden_layers=(10, 10)),)),
        first_train=TrainConfig(epochs=8, batch_size=500),
        sizes=sizes,
        seed=seed,
        validation_points=({"mu": 0.0}, {"mu": 0.414}),
        comparators=("z",),
    )


def tiny_adaptive_config(seed=92, b_prime=20_000, b_val=20_000):
    sizes = Sizes(b0=4000, b1=4000, b_prime=b_prime, b_val=b_val)
    spec = adaptive_scenario(
        pi_p_grid=(0.20, 0.30, 0.40), n1=12, b0=sizes.b0, b1=sizes.b1, l=21, b_prime=sizes.b_prime
    )
    return ExperimentConfig(
        scenario=spec,
        first_pool=CandidatePool(specs=(NetworkSpec(input_dim=3, hidden_layers=(10, 10)),)),
        first_train=TrainConfig(epochs=8, batch_size=200),
        sizes=sizes,
        seed=seed,
        validation_points=(
            {"pi_p": 0.3, "pi_t": 0.3},
            {"pi_p": 0.2, "pi_t": 0.2},
            {"pi_p": 0.3, "pi_t": 0.62},
        ),
        design=TINY_DESIGN,
        second_pool=CandidatePool(
            specs=(NetworkSpec(input_dim=1, hidden_layers=(30, 30), head=HEAD_REGRESSOR),)
        ),
        second_train=TrainConfig(epochs=600, batch_size=10),
        comparators=("incta", "bm"),
    )


def tiny_behrens_fisher_config(seed=99):
    # two candidates per fold, so a worker pool fits both folds' candidates
    sizes = Sizes(b0=1500, b1=1500, b_prime=4000, b_val=4000)
    spec = behrens_fisher_scenario(
        mu_p=0.0,
        sigma_values=(0.9, 1.1),
        powers=(0.8,),
        n=30,
        b0=sizes.b0,
        b1=sizes.b1,
        l=16,
        b_prime=sizes.b_prime,
    )
    return ExperimentConfig(
        scenario=spec,
        first_pool=CandidatePool(
            specs=tuple(NetworkSpec(input_dim=3, hidden_layers=h) for h in ((8,), (6, 6)))
        ),
        first_train=TrainConfig(epochs=3, batch_size=500),
        sizes=sizes,
        seed=seed,
        validation_points=(
            {"mu_p": 0.5, "mu_t": 0.5, "sigma_p": 1.0, "sigma_t": 1.0},
            {"mu_p": 0.5, "mu_t": 1.3, "sigma_p": 1.0, "sigma_t": 1.0},
        ),
        second_pool=CandidatePool(
            specs=tuple(
                NetworkSpec(input_dim=2, hidden_layers=h, head=HEAD_REGRESSOR)
                for h in ((8,), (6, 6))
            )
        ),
        second_train=TrainConfig(epochs=40, batch_size=10),
        comparators=("welch",),
    )


@pytest.fixture(scope="module")
def adaptive_fit():
    config = tiny_adaptive_config()
    test, n2_table = fit_test(config)
    return config, test, n2_table


# ------------------------------------------------------------ config types


def test_sizes_validation_and_scaling():
    with pytest.raises(ValueError):
        Sizes(b0=0, b1=1, b_prime=1, b_val=1)
    sizes = Sizes(b0=8000, b1=8000, b_prime=20000, b_val=20000)
    small = sizes.scaled(0.0001)
    assert small == Sizes(b0=1, b1=1, b_prime=2, b_val=2)
    with pytest.raises(ValueError):
        sizes.scaled(0.0)
    with pytest.raises(ValueError):
        sizes.scaled(1.5)


def test_config_counts_must_mirror_sizes():
    config = tiny_known_config()
    with pytest.raises(ValueError, match="counts"):
        replace(config, sizes=Sizes(b0=9000, b1=8000, b_prime=20000, b_val=20000))


def test_config_adaptive_requires_design():
    config = tiny_adaptive_config()
    with pytest.raises(ValueError, match="design"):
        replace(config, design=None)


def test_config_alpha_must_match_design():
    config = tiny_adaptive_config()
    with pytest.raises(ValueError, match="alpha"):
        replace(config, alpha=0.1)


def test_config_two_fold_needs_second_pool():
    config = tiny_adaptive_config()
    with pytest.raises(ValueError, match="second"):
        replace(config, second_pool=None, second_train=None)


def test_config_second_pool_shape_checked():
    config = tiny_adaptive_config()
    wrong_dim = CandidatePool(
        specs=(NetworkSpec(input_dim=2, hidden_layers=(30,), head=HEAD_REGRESSOR),)
    )
    with pytest.raises(ValueError, match="input_dim"):
        replace(config, second_pool=wrong_dim)
    wrong_head = CandidatePool(
        specs=(NetworkSpec(input_dim=1, hidden_layers=(30,), head=HEAD_CLASSIFIER),)
    )
    with pytest.raises(ValueError, match="regressor"):
        replace(config, second_pool=wrong_head)


def test_config_first_pool_shape_checked():
    config = tiny_known_config()
    with pytest.raises(ValueError, match="input_dim"):
        replace(
            config,
            first_pool=CandidatePool(specs=(NetworkSpec(input_dim=2, hidden_layers=(10,)),)),
        )


def test_config_comparators_whitelisted():
    config = tiny_adaptive_config()
    with pytest.raises(ValueError, match="comparator"):
        replace(config, comparators=("z",))


def test_config_validation_points_checked():
    config = tiny_known_config()
    with pytest.raises(ValueError, match="nonempty"):
        replace(config, validation_points=())
    with pytest.raises(ValueError, match="keys"):
        replace(config, validation_points=({"mu": 0.0, "sigma": 1.0},))


def test_config_seed_is_mandatory_u64():
    config = tiny_known_config()
    with pytest.raises(ValueError, match="seed"):
        replace(config, seed=-1)
    with pytest.raises(ValueError, match="seed"):
        replace(config, seed=2**64)
    with pytest.raises(ValueError, match="seed"):
        replace(config, seed=1.5)


def _leaves(value, path=()):
    # (path, value) of every scalar inside a config: dataclass fields,
    # tuple entries and dict values, walked recursively
    if is_dataclass(value):
        items = [(f.name, getattr(value, f.name)) for f in fields(value)]
    elif isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, tuple):
        items = list(enumerate(value))
    else:
        yield path, value
        return
    for key, item in items:
        yield from _leaves(item, path + (key,))


def _with_leaf(value, path, new):
    # a copy with the leaf at ``path`` set to ``new``; dataclasses are
    # copied without revalidation, since only the hash reads the result
    if not path:
        return new
    key, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {**value, key: _with_leaf(value[key], rest, new)}
    if isinstance(value, tuple):
        return value[:key] + (_with_leaf(value[key], rest, new),) + value[key + 1 :]
    out = copy.copy(value)
    object.__setattr__(out, key, _with_leaf(getattr(value, key), rest, new))
    return out


def test_config_hash_covers_every_leaf_field():
    # the hash keys cached bundles and provenance, so a change to any
    # leaf of the config must move it; a train config's own seed is the
    # one exception, as every fit replaces it with a derived seed (the
    # tiny configs have one candidate per pool, whose input_dim and head
    # the pool shares)
    bump = {int: lambda v: v + 1, float: lambda v: v + 0.125, str: lambda v: v + "x"}
    for config in (tiny_known_config(), tiny_adaptive_config()):
        base = config_hash(config)
        changed = 0
        for path, leaf in _leaves(config):
            if leaf is None or (path[-1] == "seed" and len(path) > 1):
                continue
            assert config_hash(_with_leaf(config, path, bump[type(leaf)](leaf))) != base, path
            changed += 1
        assert changed > 20


def test_config_hash_changes_with_any_field():
    config = tiny_adaptive_config()
    base = config_hash(config)
    assert config_hash(replace(config, seed=93)) != base
    assert config_hash(scaled_config(config, 0.5)) != base
    assert config_hash(replace(config, bm_level=0.05)) != base
    assert config_hash(replace(config, design=replace(TINY_DESIGN, gamma=0.002),)) != base
    assert config_hash(tiny_adaptive_config()) == base


def test_scaled_config_keeps_grids():
    config = tiny_adaptive_config()
    small = scaled_config(config, 0.5)
    assert small.sizes == Sizes(b0=2000, b1=2000, b_prime=10000, b_val=10000)
    assert small.scenario.nuisance_grid == config.scenario.nuisance_grid
    assert small.scenario.counts.b0 == 2000
    assert small.scenario.counts.l == config.scenario.counts.l


# ------------------------------------------------------------- config files


def test_packaged_configs_parse_and_round_trip():
    expected = {
        "musec.cfg": 1,
        "musec_designs.cfg": 1,
        "table4.cfg": 4,
        "table5.cfg": 2,
        "table6.cfg": 1,
    }
    for name, count in expected.items():
        configs = load_config(packaged_config(name))
        assert len(configs) == count
        # the dict form that the hash reads tells the file's experiments apart
        assert len({config_hash(config) for config in configs}) == count
        for config in configs:
            counts = config.scenario.counts
            assert (counts.b0, counts.b1, counts.b_prime) == (
                config.sizes.b0,
                config.sizes.b1,
                config.sizes.b_prime,
            )


def test_packaged_musec_matches_reference_design():
    (config,) = load_config(packaged_config("musec.cfg"))
    assert config.design == DesignParams()
    assert len(config.scenario.nuisance_grid) == 46
    assert config.scenario.nuisance_grid[0] == pytest.approx(0.05)
    assert config.scenario.nuisance_grid[-1] == pytest.approx(0.50)
    assert config.scenario.counts.l == 100
    assert config.comparators == ("incta", "bm")
    assert config.bm_level == 0.033


def test_packaged_config_unknown_name():
    with pytest.raises(ValueError, match="packaged"):
        packaged_config("nope.cfg")


def test_load_config_rejects_non_mapping(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("- 1\n- 2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="mapping"):
        load_config(path)


def test_load_config_rejects_broken_yaml(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("scenario: [not, a, map\n", encoding="utf-8")
    with pytest.raises(ValueError, match="config syntax"):
        load_config(path)


def test_load_config_names_missing_field(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("seed: 1\nalpha: 0.05\nscenario:\n  kind: known-sigma\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing required field 'sizes'"):
        load_config(path)


def test_removed_design_key_cep_mc_iters_is_named(tmp_path):
    text = packaged_config("musec.cfg").read_text(encoding="utf-8")
    path = tmp_path / "old.cfg"
    path.write_text(text.replace("design:\n", "design:\n  cep_mc_iters: 10000\n"), encoding="utf-8")
    with pytest.raises(ValueError, match="'cep_mc_iters' was removed"):
        load_config(path)


def _write_cfg(path, doc) -> Path:
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


def _musec_doc() -> dict:
    return yaml.safe_load(packaged_config("musec.cfg").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "section", ["top level", "scenario", "sizes", "first_fold", "second_fold", "design"]
)
def test_config_unknown_key_names_section_and_key(tmp_path, section):
    doc = _musec_doc()
    (doc if section == "top level" else doc[section])["droput"] = 0.1
    with pytest.raises(ValueError, match=f"config section '{section}': unknown key 'droput'"):
        load_config(_write_cfg(tmp_path / "typo.cfg", doc))


def test_config_scenario_keys_follow_the_family(tmp_path):
    # a key of another family is unknown to this one
    doc = _musec_doc()
    doc["scenario"]["sigma_grid"] = [1.0, 2.0]
    with pytest.raises(ValueError, match="'scenario': unknown key 'sigma_grid'"):
        load_config(_write_cfg(tmp_path / "foreign.cfg", doc))


def test_cli_rejects_misspelt_keys(tmp_path, capsys):
    doc = _musec_doc()
    doc["design"]["gama"] = doc["design"].pop("gamma")
    code = cli.main(["train", "--config", str(_write_cfg(tmp_path / "gama.cfg", doc))])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("[cli] config section 'design': unknown key 'gama'")
    # a misspelt comparators list would otherwise run with no comparators
    doc = _musec_doc()
    doc["comparator"] = doc.pop("comparators")
    code = cli.main(["train", "--config", str(_write_cfg(tmp_path / "cmp.cfg", doc))])
    assert code == 1
    assert "unknown key 'comparator'" in capsys.readouterr().err


def test_config_alpha_sets_training_alternatives(tmp_path):
    text = packaged_config("table6.cfg").read_text(encoding="utf-8")
    (default,) = load_config(packaged_config("table6.cfg"))
    strict = tmp_path / "strict.cfg"
    strict.write_text(text.replace("alpha: 0.05", "alpha: 0.025"), encoding="utf-8")
    (config,) = load_config(strict)
    # Welch alternative at 60% power, sigma_p = sigma_t = 0.8, n = 100
    assert default.scenario.alt_params[0] == pytest.approx(0.2148, abs=1e-4)
    assert config.scenario.alt_params[0] == pytest.approx(0.2504, abs=1e-4)


# ----------------------------------------------------------------- results


def test_row_validation():
    with pytest.raises(ValueError, match="metric"):
        Row(point="p", method="dnn", metric="nope", value=0.5, mc_se=0.0, reps=1)
    with pytest.raises(ValueError, match="rates"):
        Row(point="p", method="dnn", metric="type_i", value=1.5, mc_se=0.0, reps=1)
    Row(point="p", method="design", metric="asn", value=400.0, mc_se=0.1, reps=10)


def test_point_label_sorts_keys():
    assert harness._point_label({"pi_t": 0.4, "pi_p": 0.27}) == "pi_p=0.27,pi_t=0.4"
    assert harness._point_label({"mu": 0.0}) == "mu=0"


def test_results_find_and_value():
    rows = [
        Row(point="a", method="dnn", metric="power", value=0.9, mc_se=0.01, reps=100),
        Row(point="a", method="z", metric="power", value=0.89, mc_se=0.01, reps=100),
    ]
    table = ResultsTable(rows=rows)
    assert table.value("a", "dnn", "power") == 0.9
    assert len(table.find(point="a")) == 2
    with pytest.raises(KeyError):
        table.value("a", "nope", "power")


def test_results_csv_format(tmp_path):
    table = ResultsTable(
        rows=[Row(point="a", method="dnn", metric="power", value=1 / 3, mc_se=0.01, reps=7)]
    )
    path = tmp_path / "out.csv"
    table.to_csv(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "point,method,metric,value,mc_se,reps"
    assert lines[1].startswith("a,dnn,power,0.33333333333333331,")
    assert lines[1].endswith(",7")


# ------------------------------------------------------------------- cache


def test_cache_store_round_trip(tmp_path):
    cache = CacheStore(tmp_path / "cache")
    key = {"kind": "demo", "seed": 1}
    assert cache.load_array(key) is None
    cache.store_array(key, np.arange(6).reshape(2, 3))
    assert np.array_equal(cache.load_array(key), np.arange(6).reshape(2, 3))
    assert cache.load_array({"kind": "demo", "seed": 2}) is None
    assert cache.load_text(key) is None
    cache.store_text(key, "body")
    assert cache.load_text(key) == "body"


def test_cache_key_field_sensitivity(tmp_path):
    # any single-field edit must move the artifact to a new key
    cache = CacheStore(tmp_path)
    base = {"n1": 85, "gamma": 0.001}
    cache.store_array(base, np.ones(3))
    for edited in ({"n1": 86, "gamma": 0.001}, {"n1": 85, "gamma": 0.005}, {"n1": 85}):
        assert cache.load_array(edited) is None


def test_cached_table_keyed_by_source_digest(tmp_path, monkeypatch):
    cache = CacheStore(tmp_path)
    table = harness._cached_table(TINY_DESIGN, cache)
    builds = []

    def build(design):
        builds.append(design)
        return table + 1

    monkeypatch.setattr(harness, "n2_lookup_table", build)
    # same code: the stored table is served
    assert np.array_equal(harness._cached_table(TINY_DESIGN, cache), table)
    assert builds == []
    # changed code: the stored table is not served
    monkeypatch.setattr(harness, "_source_digest", lambda modules: "0" * 64)
    assert np.array_equal(harness._cached_table(TINY_DESIGN, cache), table + 1)
    assert builds == [TINY_DESIGN]


def test_source_digest_only_with_a_cache(monkeypatch):
    def explode(modules):
        raise AssertionError("source digest computed without a cache")

    monkeypatch.setattr(harness, "_source_digest", explode)
    assert harness._cached_table(TINY_DESIGN, None).shape == (13, 13)
    fit_test(tiny_known_config(seed=94))


def test_cached_bundle_keyed_by_source_digest(tmp_path, monkeypatch):
    config = tiny_known_config(seed=98)
    cache = CacheStore(tmp_path)
    fit_test(config, cache=cache)
    fits = []
    generate = harness.generate_training_data

    def counted(*args, **kwargs):
        fits.append(1)
        return generate(*args, **kwargs)

    monkeypatch.setattr(harness, "generate_training_data", counted)
    fit_test(config, cache=cache)
    assert fits == []
    digest = harness._source_digest
    monkeypatch.setattr(harness, "_source_digest", lambda modules: digest(modules)[::-1])
    fit_test(config, cache=cache)
    assert fits == [1]


def test_bundle_sources_cover_the_fit_path():
    # an edit to any function that builds a bundle must move the bundle key
    from deeptest import nnet, scenarios, ssr

    fit_path = (
        harness.train_statistic,
        harness.calibrate_statistic,
        scenarios.generate_training_data,
        pipeline.fit_statistic_net,
        pipeline.fit_critical_surface,
        nnet.train,
        ssr.simulate_trials,
    )
    for fn in fit_path:
        assert fn.__module__.removeprefix("deeptest.") in harness._BUNDLE_SOURCES, fn.__name__


def _assert_cache_keys_hold(tmp_path, monkeypatch, change) -> None:
    # an n2 table and a bundle stored before ``change(monkeypatch)`` are
    # served again before it and rebuilt after it
    config = tiny_known_config(seed=99)
    cache = CacheStore(tmp_path)
    harness._cached_table(TINY_DESIGN, cache)
    fit_test(config, cache=cache)
    builds = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            builds.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(harness, "n2_lookup_table", counted(harness.n2_lookup_table))
    monkeypatch.setattr(harness, "generate_training_data", counted(harness.generate_training_data))
    harness._cached_table(TINY_DESIGN, cache)
    fit_test(config, cache=cache)
    assert builds == []
    change(monkeypatch)
    harness._cached_table(TINY_DESIGN, cache)
    fit_test(config, cache=cache)
    assert builds == ["n2_lookup_table", "generate_training_data"]


def test_cache_keys_hold_the_blas_thread_count(tmp_path, monkeypatch):
    # the thread count changes the bits of a matmul, so an artifact built
    # under another count must not be served
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    _assert_cache_keys_hold(
        tmp_path, monkeypatch, lambda mp: mp.setenv("OPENBLAS_NUM_THREADS", "2")
    )


def test_cache_keys_hold_the_library_versions(tmp_path, monkeypatch):
    # another numpy or scipy can change the bits of an artifact, so one
    # built under other versions must not be served
    versions = harness._versions()
    _assert_cache_keys_hold(
        tmp_path,
        monkeypatch,
        lambda mp: mp.setattr(harness, "_versions", lambda: {**versions, "numpy": "0.0.1"}),
    )


def test_cache_store_concurrent_writers_one_key(tmp_path):
    # every writer of one key must publish a whole file: with a shared tmp
    # name one writer renames another's half-written file, or finds its
    # own tmp file already renamed away
    cache = CacheStore(tmp_path)
    key = {"kind": "race"}
    size = 100_000
    errors = []

    def writer(value):
        try:
            for _ in range(25):
                cache.store_array(key, np.full(size, float(value)))
                cache.store_text(key, str(value) * size)
                loaded = cache.load_array(key)
                assert loaded.shape == (size,) and np.all(loaded == loaded[0])
                text = cache.load_text(key)
                assert len(text) == size and len(set(text)) == 1
        except Exception as err:  # reported by the main thread
            errors.append(err)

    threads = [threading.Thread(target=writer, args=(v,)) for v in range(1, 5)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert sorted(path.suffix for path in tmp_path.iterdir()) == [".json", ".npy"]


# -------------------------------------------------------------------- pmap


def test_pmap_preserves_task_order():
    tasks = [(9, 1), (1, 9), (5, 5)]
    assert pmap(operator.sub, tasks) == [8, -8, 0]


def test_pmap_workers_match_inline():
    tasks = [(i, 3) for i in range(6)]
    assert pmap(operator.mul, tasks, workers=2) == pmap(operator.mul, tasks, workers=1)


def test_fit_test_holds_one_pool(monkeypatch):
    starts, maps = [], []

    class CountingPool(multiprocessing.pool.Pool):
        def __init__(self, *args, **kwargs):
            starts.append(1)
            super().__init__(*args, **kwargs)

        def map(self, func, iterable, chunksize=None):
            maps.append(1)
            return super().map(func, iterable, chunksize)

    monkeypatch.setattr(multiprocessing.pool, "Pool", CountingPool)
    fit_test(tiny_behrens_fisher_config(), workers=2)
    # statistic candidates, critical labels, critical candidates
    assert (len(starts), len(maps)) == (1, 3)
    assert multiprocessing.active_children() == []
    # run_experiment holds the same one pool through the validation grid
    starts.clear()
    maps.clear()
    run_experiment(tiny_behrens_fisher_config(), workers=2)
    assert (len(starts), len(maps)) == (1, 4)
    assert multiprocessing.active_children() == []


def test_failing_fit_leaves_no_worker(monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("surface fit failed")

    monkeypatch.setattr(pipeline, "fit_critical_net", explode)
    with pytest.raises(StageError, match="calibrate: surface fit failed"):
        fit_test(tiny_behrens_fisher_config(), workers=2)
    assert multiprocessing.active_children() == []


# --------------------------------------------------------------- known flow


def test_run_experiment_known_tracks_z(tmp_path):
    config = tiny_known_config()
    table, test = run_experiment(config, out_dir=tmp_path)
    dnn_t1 = table.value("mu=0", "dnn", "type_i")
    z_t1 = table.value("mu=0", "z", "type_i")
    assert abs(dnn_t1 - 0.05) < 0.008
    assert abs(dnn_t1 - z_t1) < 0.01
    assert abs(table.value("mu=0.414", "dnn", "power") - table.value("mu=0.414", "z", "power")) < 0.015
    for row in table.rows:
        assert row.mc_se == pytest.approx(np.sqrt(row.value * (1 - row.value) / row.reps))
        assert row.reps == config.sizes.b_val
    assert (tmp_path / "results.csv").exists()
    assert (tmp_path / "manifest.json").exists()
    loaded = pipeline.load_bundle((tmp_path / "bundle.json").read_text(encoding="utf-8"))
    assert loaded.provenance["config_sha256"] == config_hash(config)
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config_sha256"] == config_hash(config)
    assert manifest["seed"] == config.seed
    assert set(manifest["versions"]) == {"deeptest", "numpy", "scipy"}
    assert manifest["workers"] == 1
    assert manifest["blas_threads"] == {
        var: os.environ.get(var)
        for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
    }


def test_run_experiment_rerun_bit_identical(tmp_path):
    config = tiny_known_config(seed=95)
    run_experiment(config, out_dir=tmp_path / "a")
    run_experiment(config, out_dir=tmp_path / "b")
    for name in ("results.csv", "bundle.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    keep = lambda doc: {k: v for k, v in doc.items() if k != "wall_time_s"}
    manifest_a = json.loads((tmp_path / "a" / "manifest.json").read_text(encoding="utf-8"))
    manifest_b = json.loads((tmp_path / "b" / "manifest.json").read_text(encoding="utf-8"))
    assert keep(manifest_a) == keep(manifest_b)


def test_fit_test_reuses_cached_bundle(tmp_path, monkeypatch):
    config = tiny_known_config(seed=96)
    cache = CacheStore(tmp_path)
    test, _ = fit_test(config, cache=cache)

    def explode(*args, **kwargs):
        raise AssertionError("training data regenerated despite cache")

    monkeypatch.setattr(harness, "generate_training_data", explode)
    again, _ = fit_test(config, cache=cache)
    assert pipeline.save_bundle(again) == pipeline.save_bundle(test)
    # validation-only fields do not participate in the fit key
    revalidated = replace(config, validation_points=({"mu": 0.1},), comparators=())
    hit, _ = fit_test(revalidated, cache=cache)
    assert pipeline.save_bundle(hit) == pipeline.save_bundle(test)
    with pytest.raises(StageError):
        fit_test(replace(config, seed=97), cache=cache)


def test_stage_error_tags_the_stage(monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("simulator failed")

    monkeypatch.setattr(harness, "generate_training_data", explode)
    with pytest.raises(StageError, match="generate: simulator failed"):
        fit_test(tiny_known_config())


# ------------------------------------------------------------ adaptive flow


def test_adaptive_validate_rows(adaptive_fit):
    config, test, n2_table = adaptive_fit
    table = validate(test, config, n2_table=n2_table)
    nulls = table.find(point="pi_p=0.3,pi_t=0.3")
    assert {row.method for row in nulls} == {"dnn", "incta", "bm", "design"}
    assert {row.metric for row in nulls} == {"type_i", "asn"}
    asn = table.value("pi_p=0.3,pi_t=0.3", "design", "asn")
    assert TINY_DESIGN.n1 + TINY_DESIGN.n2_min <= asn <= TINY_DESIGN.n1 + TINY_DESIGN.n2_max
    alt = table.find(point="pi_p=0.3,pi_t=0.62", method="dnn")
    assert [row.metric for row in alt] == ["power"]
    assert table.value("pi_p=0.3,pi_t=0.62", "dnn", "power") > 0.5
    for row in table.rows:
        if row.metric != "asn":
            assert abs(row.value - 0.05) < 0.02 or row.metric == "power"


def test_adaptive_workers_bit_identical(tmp_path):
    config = tiny_adaptive_config(seed=98, b_prime=4000, b_val=4000)
    run_experiment(config, workers=1, out_dir=tmp_path / "w1")
    run_experiment(config, workers=2, out_dir=tmp_path / "w2")
    for name in ("results.csv", "bundle.json"):
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()


def test_behrens_fisher_workers_bit_identical(tmp_path):
    config = tiny_behrens_fisher_config()
    run_experiment(config, workers=1, out_dir=tmp_path / "w1")
    run_experiment(config, workers=2, out_dir=tmp_path / "w2")
    for name in ("results.csv", "bundle.json"):
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()
    manifest = json.loads((tmp_path / "w2" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["workers"] == 2
    assert multiprocessing.active_children() == []


def test_recalibration_ab_type_i(adaptive_fit):
    # the critical surface is design-specific: reusing the cutoff fitted
    # for cap 60 on a cap-8 design inflates type I far above alpha, and
    # recalibration restores it
    config, test, base_table = adaptive_fit
    small = replace(TINY_DESIGN, n2_max=8)
    small_table = derive_capped_table(base_table, small)
    stream = RandomStream(seed=555)
    batch = simulate_trials(0.30, 0.30, small, 60_000, stream.child(0), small_table)
    feats = batch.statistic_features(TINY_DESIGN.n1)
    crit = batch.pooled_stage1_rate(TINY_DESIGN.n1)[:, None]
    stale = float(np.mean(pipeline.decide_batch(test, feats, crit)))
    fresh_test = recalibrate_critical(test, config, small, small_table, stream.child(1))
    fresh = float(np.mean(pipeline.decide_batch(fresh_test, feats, crit)))
    assert stale > 0.08
    assert abs(fresh - 0.05) < 0.012
    assert fresh_test.provenance["recalibrated_n2_max"] == 8


def test_recalibrate_requires_adaptive():
    config = tiny_known_config()
    test, _ = fit_test(config)
    with pytest.raises(ValueError, match="adaptive"):
        recalibrate_critical(test, config, TINY_DESIGN, None, RandomStream(seed=1))


def test_asn_search_reaches_target(adaptive_fit):
    config, test, _ = adaptive_fit
    table = asn_for_power(
        config, target_power=0.80, pi_p=0.30, pi_t=0.62,
        search_cap=80, power_reps=4000, asn_reps=8000, test=test,
    )
    for method in ("dnn", "incta", "bm"):
        (asn_row,) = [
            r for r in table.rows if r.method == method and r.metric == "asn"
        ]
        (power_row,) = [
            r for r in table.rows if r.method == method and r.metric == "power"
        ]
        cap = int(asn_row.point.split("n2_max=")[1])
        assert TINY_DESIGN.n2_min <= cap <= 80
        if method == "dnn":
            # the statistic is only trusted on its trained stage-2 range
            assert cap <= TINY_DESIGN.n2_max
        assert power_row.value >= 0.80 - 0.005 - 3 * power_row.mc_se
        assert TINY_DESIGN.n1 + TINY_DESIGN.n2_min <= asn_row.value <= TINY_DESIGN.n1 + cap


def test_asn_search_target_zero_hits_floor(adaptive_fit):
    config, test, _ = adaptive_fit
    table = asn_for_power(
        config, target_power=0.0, pi_p=0.30, pi_t=0.62,
        search_cap=20, power_reps=500, asn_reps=500, test=test,
    )
    for row in table.find(metric="asn"):
        assert row.point.endswith(f"n2_max={TINY_DESIGN.n2_min}")


def test_asn_search_unreachable_reported(adaptive_fit):
    config, test, _ = adaptive_fit
    table = asn_for_power(
        config, target_power=0.9995, pi_p=0.30, pi_t=0.32,
        search_cap=10, power_reps=500, asn_reps=500, test=test,
    )
    for row in table.rows:
        assert row.point.endswith("n2_max=unreachable")
        assert np.isnan(row.value)
        assert row.reps == 0


def test_asn_requires_adaptive_config():
    with pytest.raises(ValueError, match="adaptive"):
        asn_for_power(tiny_known_config(), 0.9, 0.27, 0.40)


def test_heatmap_grid_properties(adaptive_fit, tmp_path):
    config, test, n2_table = adaptive_fit
    stream = RandomStream(seed=92).child(7)
    null_grid = heatmap_export(
        test, TINY_DESIGN, n2_table, 0.30, 0.30, 400, stream.child(0),
        path=tmp_path / "null.csv",
    )
    side = TINY_DESIGN.n1 + 1
    assert null_grid.shape == (side, side)
    assert np.all((null_grid >= 0.0) & (null_grid <= 1.0))
    assert np.max(np.diag(null_grid)) < 0.5
    alt_grid = heatmap_export(
        test, TINY_DESIGN, n2_table, 0.30, 0.62, 400, stream.child(1)
    )
    assert alt_grid[2, 11] > 0.9
    reloaded = np.loadtxt(tmp_path / "null.csv", delimiter=",")
    assert np.array_equal(reloaded, null_grid)


def test_heatmap_row_features_are_the_trial_batch_map(adaptive_fit, monkeypatch):
    config, test, n2_table = adaptive_fit
    seen = []

    def recording(test, stat, crit):
        seen.append((stat, crit))
        return decide_batch(test, stat, crit)

    decide_batch = pipeline.decide_batch
    monkeypatch.setattr(pipeline, "decide_batch", recording)
    n1, reps, x_p1 = TINY_DESIGN.n1, 50, 4
    stream = RandomStream(seed=93)
    row = harness._heatmap_row(test, TINY_DESIGN, n2_table, 0.3, 0.5, reps, x_p1, stream)
    # replay the row's draws: stage-2 counts cell by cell, placebo first
    gen = stream.generator()
    cells = []
    for x_t1 in range(n1 + 1):
        n2 = int(n2_table[x_p1, x_t1])
        cells.append((x_t1, n2, gen.binomial(n2, 0.3, size=reps), gen.binomial(n2, 0.5, size=reps)))
    batch = TrialBatch(
        x_p1=np.full((n1 + 1) * reps, x_p1),
        x_t1=np.repeat([c[0] for c in cells], reps),
        n2=np.repeat([c[1] for c in cells], reps),
        x_p2=np.concatenate([c[2] for c in cells]),
        x_t2=np.concatenate([c[3] for c in cells]),
    )
    ((stat, crit),) = seen
    assert np.array_equal(stat, batch.statistic_features(n1))
    assert np.array_equal(crit, batch.pooled_stage1_rate(n1)[:, None])
    hits = decide_batch(test, stat, crit)
    assert np.array_equal(row, hits.reshape(n1 + 1, reps).mean(axis=1))


def test_heatmap_requires_adaptive():
    config = tiny_known_config()
    test, _ = fit_test(config)
    with pytest.raises(ValueError, match="adaptive"):
        heatmap_export(test, TINY_DESIGN, None, 0.3, 0.3, 10, RandomStream(seed=1))


# --------------------------------------------------------------- reproduce


def test_reproduce_rejects_bad_arguments():
    with pytest.raises(ValueError, match="exhibit"):
        reproduce("T9")
    with pytest.raises(ValueError, match="scale"):
        reproduce("T4", scale=0.0)
    with pytest.raises(ValueError, match="scale"):
        reproduce("T4", scale=2.0)


def test_reference_values_shape():
    t1 = reference_values("T1")
    assert t1[("pi_p=0.27,pi_t=0.4", "dnn", "power")] == 0.945
    assert t1[("pi_p=0.27,pi_t=0.27", "design", "asn")] == 403
    t2 = reference_values("T2")
    assert t2[("pi_p=0.27,pi_t=0.4", "dnn", "asn")] == 189.0
    # the two same-(n, sigma) experiments share one null label, so the
    # T4 dict holds 12 distinct keys while the table prints 16 rows
    assert len(reference_values("T4")) == 12
    assert len(reference_values("T5")) == 24
    assert len(reference_values("T6")) == 24
    assert reference_values("F1") == {}


def test_reproduce_t4_tiny_scale(tmp_path):
    table = reproduce("T4", scale=0.002, out_dir=tmp_path)
    assert len(table.rows) == 16
    points = {row.point for row in table.rows}
    assert "n=50,sigma=1,mu=0" in points
    assert "n=150,sigma=2,mu=0.478" in points
    side_by_side = (tmp_path / "reproduce_T4.csv").read_text(encoding="utf-8").splitlines()
    assert side_by_side[0] == "point,method,metric,reference,value,mc_se,reps"
    referenced = [line for line in side_by_side[1:] if line.split(",")[3] != ""]
    assert len(referenced) == 16


# --------------------------------------------------------------------- cli


TINY_CFG = """\
seed: 91
alpha: 0.05
scenario: {kind: normal-known-sigma, mu0: 0.0, mu1: 0.414, sigma: 1.0, n: 50}
sizes: {b0: 8000, b1: 8000, b_prime: 20000, b_val: 20000}
first_fold: {depths: [2], widths: [10], dropout: 0.1, epochs: 8, batch_size: 500}
comparators: [z]
validation_points:
  - {mu: 0.0}
  - {mu: 0.414}
"""


@pytest.fixture()
def tiny_cfg_path(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG, encoding="utf-8")
    return path


def test_cli_staged_flow_matches_fit_test(tiny_cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(tiny_cfg_path), "--out", str(out)]) == 0
    assert cli.main([
        "calibrate", "--config", str(tiny_cfg_path),
        "--statistic", str(out / "statistic.json"), "--out", str(out),
    ]) == 0
    assert cli.main([
        "validate", "--config", str(tiny_cfg_path),
        "--bundle", str(out / "bundle.json"), "--out", str(out),
    ]) == 0
    capsys.readouterr()
    (config,) = load_config(tiny_cfg_path)
    test, _ = fit_test(config)
    staged = (out / "bundle.json").read_text(encoding="utf-8")
    assert staged == pipeline.save_bundle(test)
    direct = validate(test, config)
    staged_csv = (out / "results.csv").read_bytes()
    run_dir = tmp_path / "run"
    assert cli.main(["run", "--config", str(tiny_cfg_path), "--out", str(run_dir)]) == 0
    capsys.readouterr()
    assert (run_dir / "results.csv").read_bytes() == staged_csv
    assert direct.value("mu=0", "z", "type_i") == pytest.approx(
        float(staged_csv.decode().splitlines()[2].split(",")[3])
    )


def test_cli_calibrate_rejects_foreign_statistic(tiny_cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(tiny_cfg_path), "--out", str(out)]) == 0
    other = tmp_path / "other.cfg"
    other.write_text(TINY_CFG.replace("seed: 91", "seed: 17"), encoding="utf-8")
    code = cli.main([
        "calibrate", "--config", str(other),
        "--statistic", str(out / "statistic.json"), "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "different config" in captured.err


def test_cli_simulate_trial(capsys):
    assert cli.main([
        "simulate-trial", "--seed", "7", "--pi-p", "0.27", "--pi-t", "0.40",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {"x_p1", "x_t1", "n2", "x_p2", "x_t2"} <= set(payload)
    assert 21 <= payload["n2"] <= 340


def test_cli_simulate_trial_deterministic(capsys):
    cli.main(["simulate-trial", "--seed", "7", "--pi-p", "0.27", "--pi-t", "0.40"])
    first = capsys.readouterr().out
    cli.main(["simulate-trial", "--seed", "7", "--pi-p", "0.27", "--pi-t", "0.40"])
    assert capsys.readouterr().out == first


def test_cli_errors_are_stage_tagged(tmp_path, capsys):
    code = cli.main(["validate", "--config", str(tmp_path / "missing.cfg"),
                     "--bundle", "nope.json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("[cli]")


def test_cli_multi_experiment_config_rejected(capsys):
    code = cli.main(["train", "--config", str(packaged_config("table4.cfg"))])
    captured = capsys.readouterr()
    assert code == 1
    assert "exactly one" in captured.err


def test_cli_reproduce_unknown_table(capsys):
    code = cli.main(["reproduce", "--table", "T9"])
    captured = capsys.readouterr()
    assert code == 1
    assert "[cli]" in captured.err


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_pins_blas_before_numpy_loads():
    # a process that imports the CLI with the variables unset runs BLAS on
    # one thread; an explicit setting is kept
    code = (
        "import os\n"
        "import deeptest.cli\n"
        "import numpy as np\n"
        "a = np.ones((1500, 1500))\n"
        "a @ a\n"
        f"print(*(os.environ[v] for v in {_BLAS_VARS!r}), len(os.listdir('/proc/self/task')))\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    run = lambda env: subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert run(env) == ["1", "1", "1", "1"]
    assert run({**env, "OPENBLAS_NUM_THREADS": "2"})[:3] == ["2", "1", "1"]


def test_import_warns_on_multithreaded_blas():
    # an explicit BLAS thread count above 1 is kept, with one warning
    # that byte-equality across worker counts is then not assured
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    run = lambda env: subprocess.run(
        [sys.executable, "-W", "always", "-c", "import deeptest.cli"],
        env=env, capture_output=True, text=True, check=True,
    ).stderr
    assert run(env) == ""
    assert run({**env, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}) == ""
    err = run({**env, "OPENBLAS_NUM_THREADS": "2"})
    assert err.count("RuntimeWarning") == 1
    assert "OPENBLAS_NUM_THREADS" in err and "byte-equal" in err


def test_cli_usage_error_nonzero(capsys):
    assert cli.main([]) == 2
    assert cli.main(["not-a-command"]) == 2
    capsys.readouterr()
