"""Command-line interface: training, evaluation and diagnostics.

Configuration is a flat JSON object whose keys mirror the preset tables
(``lr``, ``dropout``, ``hidden``, ``lambda0``, ``lambda1``, ``alpha``,
``prop_step``, ...).  Each key but ``dataset`` and ``resplit`` is a field of
``ModelConfig`` or ``TrainConfig`` and takes that field's default and type;
three keys differ from their field's name (``_KEYS``).  Precedence: the
defaults, then ``--preset``, then ``--config``, then repeated ``--set
key=value`` overrides, then explicit flags such as ``--seed``.  Unknown keys
are rejected, and so is a value not of its key's type: a boolean key takes
``true`` or ``false``, an integer key an integer, a float key a finite
number.  The seed must be at least 0.  ``--set`` takes only a key that its
subcommand reads; a preset or a ``--config`` file may hold any key.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import shutil
import sys
import typing
from importlib import resources

import numpy as np

from .autodiff import Tape, check_gradients
from .data import SyntheticSpec, generate_synthetic, load_dataset, make_splits, save_dataset
from .energy import EnergyParams
from .hypergraph import build_expansion_operators, load_hypergraph
from .model import (
    ModelConfig,
    build_taped_logits,
    check_config_value,
    descent_trace,
    init_model,
    load_checkpoint,
    save_checkpoint,
    step_bound_general,
    step_bound_simple,
)
from .train import TrainConfig, evaluate, train

# by field name, the config keys that differ from it; every other field's key is its name
_KEYS = {"d": "hidden", "t_layers": "prop_step", "early_stop_patience": "patience"}


def _fields(cls) -> dict:
    """``{config key: (field name, type, default)}`` of ``ModelConfig`` or ``TrainConfig``."""
    kinds = typing.get_type_hints(cls)
    return {_KEYS.get(f.name, f.name): (f.name, kinds[f.name], f.default) for f in dataclasses.fields(cls)}


_FIELDS = {**_fields(ModelConfig), **_fields(TrainConfig)}
CONFIG_DEFAULTS = {"dataset": None, **{key: default for key, (_, _, default) in _FIELDS.items()}, "resplit": False}
_KINDS = {"resplit": bool, **{key: kind for key, (_, kind, _) in _FIELDS.items()}}
# what a subcommand that builds an untrained model reads
_MODEL_KEYS = {"dataset", *_fields(ModelConfig)}


def _reject_unknown(keys, origin: str) -> None:
    unknown = sorted(set(keys) - set(CONFIG_DEFAULTS))
    if unknown:
        raise ValueError(f"{origin}: unknown config keys {unknown}")


def _check_types(cfg: dict) -> None:
    """Each boolean, integer or float key takes a value of its field's type (a float key also
    takes an int), ``dataset`` a string or none, and the seed is at least 0."""
    if not isinstance(cfg["dataset"], (str, type(None))):
        raise ValueError(f"config key 'dataset' must be a string, got {cfg['dataset']!r}")
    for key, value in cfg.items():
        kind = _KINDS.get(key)
        if kind in (bool, int, float):
            check_config_value(key, value, kind)
    if cfg["seed"] < 0:
        raise ValueError(f"config key 'seed' must be at least 0, got {cfg['seed']}")


def load_preset(name: str) -> dict:
    base = resources.files("phenomnn").joinpath("presets")
    path = base.joinpath(f"{name}.json")
    if not path.is_file():
        available = sorted(p.name[:-5] for p in base.iterdir() if p.name.endswith(".json"))
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(available)}")
    return json.loads(path.read_text(encoding="utf-8"))


def resolve_config(args, reads=CONFIG_DEFAULTS) -> dict:
    """The run config of ``args``; ``--set`` may name only a key in ``reads``, those the subcommand reads."""
    cfg = dict(CONFIG_DEFAULTS)
    if args.preset:
        preset = load_preset(args.preset)
        _reject_unknown(preset, f"preset {args.preset}")
        cfg.update(preset)
    if args.config:
        with open(args.config, "r", encoding="utf-8") as f:
            user = json.load(f)
        if not isinstance(user, dict):
            raise ValueError(f"{args.config}: a config must be a JSON object, got {type(user).__name__}")
        _reject_unknown(user, args.config)
        cfg.update(user)
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        _reject_unknown([key], "--set")
        if key not in reads:
            raise ValueError(f"--set: {args.command} does not read config key {key!r}")
        try:
            cfg[key] = json.loads(raw)
        except json.JSONDecodeError:
            cfg[key] = raw
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if args.data:
        cfg["dataset"] = args.data
    _check_types(cfg)
    return cfg


def _config(cls, cfg: dict):
    """``ModelConfig`` or ``TrainConfig`` from the config's values.  A float field takes
    ``float(value)``, so a preset's JSON integer is written to a checkpoint as a float."""
    values = {}
    for key, (name, kind, _) in _fields(cls).items():
        values[name] = float(cfg[key]) if kind is float else cfg[key]
    return cls(**values)


def _need_dataset(cfg: dict):
    if not cfg["dataset"]:
        raise ValueError("no dataset given (use --data, or 'dataset' in the config)")
    return load_dataset(cfg["dataset"])


def _out_dir(args) -> str:
    out = getattr(args, "out", None) or "."
    os.makedirs(out, exist_ok=True)
    return out


@contextlib.contextmanager
def _out_dir_for_runs(args):
    """``--out``, made before the runs; a directory made here is removed again if they fail."""
    made = not os.path.exists(args.out or ".")
    out = _out_dir(args)
    try:
        yield out
    except BaseException:
        if made:
            shutil.rmtree(out, ignore_errors=True)
        raise


def _single_run(dataset, mc: ModelConfig, tc: TrainConfig, resplit: bool):
    if resplit:
        # on a copy: every serial run shares the loaded dataset
        dataset = dataclasses.replace(dataset, splits=make_splits(dataset.hypergraph.n, seed=tc.seed))
        dataset.validate()
    return train(dataset, mc, tc)


def _run_summary(dataset, mc: ModelConfig, tc: TrainConfig, resplit: bool) -> dict:
    _, metrics = _single_run(dataset, mc, tc, resplit)
    return {"seed": tc.seed, **metrics.summary()}


def cmd_train(args) -> int:
    repeats = args.repeats
    if repeats < 1:
        raise ValueError(f"--repeats must be at least 1, got {repeats}")
    if args.parallel is not None and args.parallel < 1:
        raise ValueError(f"--parallel must be at least 1, got {args.parallel}")
    cfg = resolve_config(args)
    mc, tc = _config(ModelConfig, cfg), _config(TrainConfig, cfg)
    dataset = _need_dataset(cfg)
    # every value, and the dataset, is checked and --out is made before the runs
    with _out_dir_for_runs(args) as out:
        if repeats == 1:
            model, metrics = _single_run(dataset, mc, tc, cfg["resplit"])
            metrics.write(out)
            save_checkpoint(model, os.path.join(out, "checkpoint.json"))
            print(
                f"trained {cfg['variant']} variant: best val acc {metrics.best_val_acc:.4f}, "
                f"test acc {metrics.final_test_acc:.4f} (epoch {metrics.best_epoch})"
            )
            return 0
        runs = [(mc, dataclasses.replace(tc, seed=tc.seed + i), cfg["resplit"]) for i in range(repeats)]
        if args.parallel:
            import multiprocessing as mp

            with mp.Pool(min(repeats, args.parallel)) as pool:
                results = pool.starmap(_run_summary, [(dataset, *run) for run in runs])
        else:
            results = [_run_summary(dataset, *run) for run in runs]
        accs = np.array([r["final_test_acc"] for r in results])
        summary = {
            "repeats": repeats,
            "mean_test_acc": float(accs.mean()),
            "std_test_acc": float(accs.std()),
            "runs": results,
        }
        with open(os.path.join(out, "summary.json"), "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=2)
        print(f"{repeats} runs: test acc {accs.mean():.4f} +/- {accs.std():.4f}")
        return 0


def cmd_eval(args) -> int:
    dataset = load_dataset(args.data)
    model = load_checkpoint(args.checkpoint)
    width, have = model.predictor.w.shape[0], dataset.features.shape[1]
    if have != width:
        raise ValueError(f"{args.checkpoint}: predictor.w0 takes {width} features, the dataset has {have}")
    scored, have = model.classifier.b.size, dataset.n_classes
    if have > scored:
        raise ValueError(f"{args.checkpoint}: the classifier scores {scored} classes, the dataset has {have}")
    acc = evaluate(model, dataset, args.split)
    print(f"{args.split} accuracy: {acc:.4f}")
    return 0


def cmd_energy_trace(args) -> int:
    if args.steps is not None and args.steps < 0:
        raise ValueError(f"--steps must be at least 0, got {args.steps}")
    cfg = resolve_config(args, _MODEL_KEYS | {"seed"})
    dataset = _need_dataset(cfg)
    mc = _config(ModelConfig, cfg)
    ops = build_expansion_operators(dataset.hypergraph, mc.lambda0, mc.lambda1)
    model = init_model(mc, dataset.features.shape[1], dataset.n_classes, seed=cfg["seed"])
    rows = descent_trace(dataset.features, model, ops, args.steps)
    lines = ["iteration,energy,feasible,grad_norm"]
    lines += [f"{r['iteration']},{r['energy']!r},{int(r['feasible'])},{r['grad_norm']!r}" for r in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        out = _out_dir(args)
        with open(os.path.join(out, "energy_trace.csv"), "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote {len(rows)} trace rows to {os.path.join(out, 'energy_trace.csv')}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_check_gradients(args) -> int:
    cfg = resolve_config(args, _MODEL_KEYS | {"seed"})
    if cfg["dataset"]:
        dataset = _need_dataset(cfg)
    else:
        dataset = generate_synthetic(
            SyntheticSpec(nodes_per_community=12, edges=10, feature_dim=5, seed=cfg["seed"])
        )
    mc = _config(ModelConfig, cfg)
    ops = build_expansion_operators(dataset.hypergraph, mc.lambda0, mc.lambda1)
    model = init_model(mc, dataset.features.shape[1], dataset.n_classes, seed=cfg["seed"])
    base = model.parameters()
    rows = dataset.split_indices("train")
    labels = dataset.labels[rows]

    def build(params):
        # check_gradients perturbs the arrays of ``base`` in place, which the model holds
        tape = Tape()
        logits = build_taped_logits(tape, model, ops, dataset.features)
        loss = tape.softmax_cross_entropy(logits, labels, rows)
        return tape, loss

    report = check_gradients(build, base, samples=args.samples, step=args.step, seed=cfg["seed"])
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        out = _out_dir(args)
        with open(os.path.join(out, "gradient_report.json"), "w", encoding="utf-8") as f:
            f.write(text + "\n")
    print(text)
    return 0 if report["passed"] else 1


def cmd_step_bound(args) -> int:
    cfg = resolve_config(args, _MODEL_KEYS - {"prop_step", "hidden"})
    if cfg["dataset"] and args.hypergraph:
        raise ValueError("step-bound takes --data (or the config key 'dataset') or --hypergraph, not both")
    if cfg["dataset"]:
        hg = load_hypergraph(os.path.join(cfg["dataset"], "hypergraph.txt"))
    elif args.hypergraph:
        hg = load_hypergraph(args.hypergraph)
    else:
        raise ValueError("step-bound needs --data or --hypergraph")
    mc = _config(ModelConfig, cfg)
    ops = build_expansion_operators(hg, mc.lambda0, mc.lambda1)
    if mc.variant == "simple":
        bound = step_bound_simple(ops)
    else:
        # at H0 = H1 = I the operator is I_d (x) M, so its bound does not depend on the width d
        bound = step_bound_general(ops, EnergyParams.identity(1))
    status = "converged" if bound.eig.converged else f"NOT converged (residual {bound.eig.residual:.3g})"
    print(f"step bound ({mc.variant}): {bound.value:.10g}  [sigma={bound.sigma:.6g}, {status}]")
    print(f"certificate: {bound.certificate} ({bound.eig.iterations} operator applications)")
    if mc.alpha >= bound.value:
        print(f"configured alpha={mc.alpha} exceeds the bound")
    return 0


def cmd_gen_synthetic(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    spec = SyntheticSpec(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SyntheticSpec)})
    ds = generate_synthetic(spec)
    out = _out_dir(args)
    save_dataset(out, ds)
    print(f"wrote synthetic dataset to {out}: n={ds.hypergraph.n} m={ds.hypergraph.m} c={ds.n_classes}")
    return 0


def _add_common(p: argparse.ArgumentParser, seed_and_out: bool = True) -> None:
    """Add the config flags, less ``--seed`` and ``--out`` where the subcommand would not read them."""
    p.add_argument("--config", help="path to a JSON run config")
    p.add_argument("--preset", help="name of a shipped preset")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one config key")
    if seed_and_out:
        p.add_argument("--seed", type=int, help="seed for all randomness")
        p.add_argument("--out", help="output directory")
    p.add_argument("--data", help="dataset directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phenomnn",
        description="Hypergraph node classification via unrolled energy descent layers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write metrics + checkpoint")
    _add_common(p)
    p.add_argument("--repeats", type=int, default=1, help="number of seeded runs")
    p.add_argument("--parallel", nargs="?", type=int, const=os.cpu_count() or 1, metavar="N",
                   help="run repeats in N parallel processes (bare: one per CPU)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on one split")
    p.add_argument("--data", required=True, help="dataset directory")  # the checkpoint holds the rest
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("energy-trace", help="emit the descent energy trace as CSV")
    _add_common(p)
    p.add_argument("--steps", type=int, help="number of descent steps (default: prop_step)")
    p.set_defaults(func=cmd_energy_trace)

    p = sub.add_parser("check-gradients", help="compare tape gradients against finite differences")
    _add_common(p)
    p.add_argument("--samples", type=int, default=128)
    p.add_argument("--step", type=float, default=1e-5)
    p.set_defaults(func=cmd_check_gradients)

    p = sub.add_parser("step-bound", help="print the convergence step-size bound")
    _add_common(p, seed_and_out=False)  # the bound is taken at H0 = H1 = I, of any width
    p.add_argument("--hypergraph", help="hypergraph file (alternative to --data)")
    p.set_defaults(func=cmd_step_bound)

    p = sub.add_parser("gen-synthetic", help="generate a synthetic community dataset")
    p.add_argument("--out", required=True)
    kinds = typing.get_type_hints(SyntheticSpec)
    for f in dataclasses.fields(SyntheticSpec):  # one flag per generator setting, at its default
        p.add_argument("--" + f.name.replace("_", "-"), type=kinds[f.name], default=f.default)
    p.set_defaults(func=cmd_gen_synthetic)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
