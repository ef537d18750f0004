"""Command line interface.

Subcommands mirror the pipeline stages (train, calibrate, validate),
plus trial simulation, the sample-size search, heatmap export, and the
canned table reproductions.  Every failure exits nonzero with a
stage-tagged line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deeptest",
        description="Neural hypothesis tests with simulation-calibrated cutoffs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--scale", type=float, default=1.0, help="Monte Carlo size multiplier")
        p.add_argument("--workers", type=int, default=1, help="worker processes")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--cache", default=None, help="artifact cache directory")

    p = sub.add_parser("train", help="fit the test statistic network")
    common(p)

    p = sub.add_parser("calibrate", help="fit the critical surface for a trained statistic")
    common(p)
    p.add_argument("--statistic", required=True, help="statistic.json from the train step")

    p = sub.add_parser("validate", help="run the validation grid against a saved bundle")
    common(p)
    p.add_argument("--bundle", required=True, help="bundle.json from calibrate or run")

    p = sub.add_parser("run", help="train, calibrate, and validate in one go")
    common(p)

    p = sub.add_parser("simulate-trial", help="simulate one reassessed trial")
    p.add_argument("--config", default=None, help="config supplying the design (optional)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pi-p", type=float, required=True)
    p.add_argument("--pi-t", type=float, required=True)
    p.add_argument("--cache", default=None, help="artifact cache directory")

    p = sub.add_parser("asn", help="search n2_max for a target power and report ASN")
    common(p)
    p.add_argument("--target", type=float, required=True, help="target power in (0, 1)")
    p.add_argument("--pi-p", type=float, required=True)
    p.add_argument("--pi-t", type=float, required=True)

    p = sub.add_parser("heatmap", help="export conditional rejection grids")
    common(p)
    p.add_argument("--pi-p", type=float, required=True)
    p.add_argument("--pi-t", type=float, required=True)
    p.add_argument("--reps", type=int, default=2000, help="replicates per stage-1 cell")

    p = sub.add_parser("reproduce", help="rerun a canned benchmark exhibit")
    p.add_argument("--table", required=True, help="exhibit id, e.g. T1 or F1")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--cache", default=None)
    return parser


def _load_single_config(harness, args):
    configs = harness.load_config(args.config)
    if len(configs) != 1:
        raise ValueError(
            f"{args.config} holds {len(configs)} experiments; this command needs exactly one"
        )
    config = configs[0]
    if args.scale != 1.0:
        config = harness.scaled_config(config, args.scale)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _out_dir(args) -> Path:
    out = Path(args.out if args.out is not None else ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cache(harness, args):
    return None if args.cache is None else harness.CacheStore(args.cache)


def _cmd_train(harness, args) -> int:
    from . import nnet

    config = _load_single_config(harness, args)
    n2_table = harness._design_table(config, _cache(harness, args))
    with harness.worker_pool(args.workers) as mapper:
        net, report = harness.train_statistic(config, n2_table, mapper)
    document = {
        "format": "deeptest-statistic",
        "version": 1,
        "config_sha256": harness.config_hash(config),
        "selection": report.as_dict(),
        "network": json.loads(nnet.save(net)),
    }
    path = _out_dir(args) / "statistic.json"
    path.write_text(json.dumps(document, indent=1, sort_keys=True), encoding="utf-8")
    print(path)
    return 0


def _load_statistic(harness, path: str):
    from . import nnet

    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if document.get("format") != "deeptest-statistic" or document.get("version") != 1:
        raise ValueError(f"{path} is not a statistic document")
    return nnet.load(json.dumps(document["network"])), document


def _cmd_calibrate(harness, args) -> int:
    from . import pipeline

    config = _load_single_config(harness, args)
    net, document = _load_statistic(harness, args.statistic)
    if document["config_sha256"] != harness.config_hash(config):
        raise ValueError("statistic was trained under a different config")
    n2_table = harness._design_table(config, _cache(harness, args))
    with harness.worker_pool(args.workers) as mapper:
        test = harness.calibrate_statistic(config, net, document["selection"], n2_table, mapper)
    path = _out_dir(args) / "bundle.json"
    path.write_text(pipeline.save_bundle(test), encoding="utf-8")
    print(path)
    return 0


def _cmd_validate(harness, args) -> int:
    from . import pipeline

    config = _load_single_config(harness, args)
    test = pipeline.load_bundle(Path(args.bundle).read_text(encoding="utf-8"))
    n2_table = harness._design_table(config, _cache(harness, args))
    table = harness.validate(test, config, workers=args.workers, n2_table=n2_table)
    path = _out_dir(args) / "results.csv"
    table.to_csv(path)
    print(path)
    return 0


def _cmd_run(harness, args) -> int:
    config = _load_single_config(harness, args)
    out = _out_dir(args)
    harness.run_experiment(
        config, workers=args.workers, out_dir=out, cache=_cache(harness, args)
    )
    print(out / "results.csv")
    return 0


def _cmd_simulate_trial(harness, args) -> int:
    from .ssr import DesignParams, TrialPath, simulate_trials
    from .streams import RandomStream

    design = DesignParams()
    if args.config is not None:
        configs = harness.load_config(args.config)
        if len(configs) != 1 or configs[0].design is None:
            raise ValueError("config must hold one adaptive experiment")
        design = configs[0].design
    n2_table = harness._cached_table(design, _cache(harness, args))
    batch = simulate_trials(args.pi_p, args.pi_t, design, 1, RandomStream(seed=args.seed), n2_table)
    path = TrialPath(*(int(getattr(batch, field.name)[0]) for field in fields(TrialPath)))
    print(json.dumps(asdict(path), sort_keys=True))
    return 0


def _cmd_asn(harness, args) -> int:
    config = _load_single_config(harness, args)
    table = harness.asn_for_power(
        config,
        target_power=args.target,
        pi_p=args.pi_p,
        pi_t=args.pi_t,
        power_reps=max(2_000, config.sizes.b_val // 2),
        asn_reps=max(2_000, config.sizes.b_val),
        workers=args.workers,
        cache=_cache(harness, args),
    )
    path = _out_dir(args) / "asn.csv"
    table.to_csv(path)
    print(path)
    return 0


def _cmd_heatmap(harness, args) -> int:
    from .streams import RandomStream

    config = _load_single_config(harness, args)
    path = _out_dir(args) / f"heatmap_{args.pi_p:g}_{args.pi_t:g}.csv"
    with harness.worker_pool(args.workers) as mapper:
        test, n2_table = harness.fit_test(config, cache=_cache(harness, args), mapper=mapper)
        harness.heatmap_export(
            test,
            config.design,
            n2_table,
            args.pi_p,
            args.pi_t,
            args.reps,
            RandomStream(seed=config.seed).child(7),
            path=path,
            mapper=mapper,
        )
    print(path)
    return 0


def _cmd_reproduce(harness, args) -> int:
    table = harness.reproduce(
        args.table,
        scale=args.scale,
        workers=args.workers,
        out_dir=args.out,
        cache=_cache(harness, args),
        seed=args.seed,
    )
    if args.out is None:
        table.to_csv(sys.stdout)
    else:
        print(Path(args.out) / f"reproduce_{args.table}.csv")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "calibrate": _cmd_calibrate,
    "validate": _cmd_validate,
    "run": _cmd_run,
    "simulate-trial": _cmd_simulate_trial,
    "asn": _cmd_asn,
    "heatmap": _cmd_heatmap,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    from . import harness

    try:
        return _COMMANDS[args.command](harness, args)
    except harness.StageError as err:
        print(f"[{err.stage}] {err.original}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError) as err:
        print(f"[cli] {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
