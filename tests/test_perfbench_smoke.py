"""The benchmark's own correctness checks on one small workload.

``perfbench/run.py`` compares logits and descent-trace energies (to 1e-8) and
the tape gradient (to 1e-5) against an independent numpy/scipy model, so a
kernel rewrite that drifts from the paper's update fails here too.
"""

import importlib
import json
import os
import subprocess
import sys

from helpers import load_workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ("autodiff", "linalg", "model", "train")
# every phenomnn name perfbench/run.py calls itself; small-general, the one
# workload run above, times the general bound, so it alone never reaches
# step_bound_simple, which wide-simple and narrow-general time
CALLED = (
    "data.load_dataset", "hypergraph.build_expansion_operators", "model.ModelConfig", "model.init_model",
    "model.step_bound_simple", "model.step_bound_general", "model.forward", "model.build_taped_logits",
    "autodiff.Tape", "autodiff.backward", "train.TrainConfig", "train.train",
)


def test_small_general_benchmark_run_is_correct():
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "small-general",
           "--seed", "1", "--seconds", "30", "--trace", "0"]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0, run.stderr
    assert result["attempted"] > 0


def test_names_the_benchmark_patches_resolve():
    # the benchmark's epoch clock patches train.Tape and train.descent_trace,
    # its tracer the names train looks up for an epoch's phases, and its
    # in-solve speed probe model.extreme_eigenvalue; its patcher skips a
    # missing name without a word, so a rename would only show as bad numbers
    autodiff, linalg, model, train = (importlib.import_module(f"phenomnn.{m}") for m in MODULES)

    assert train.Tape is autodiff.Tape
    assert train.descent_trace is model.descent_trace
    assert train.build_taped_logits is model.build_taped_logits
    assert train.backward is autodiff.backward
    assert train.forward is model.forward
    assert callable(train.adam_step) and callable(train.accuracy)
    assert model.extreme_eigenvalue is linalg.extreme_eigenvalue


def test_names_the_benchmark_calls_resolve():
    for dotted in CALLED:
        module, name = dotted.split(".")
        assert callable(getattr(importlib.import_module(f"phenomnn.{module}"), name, None)), dotted


def test_configs_take_the_benchmark_arguments(monkeypatch):
    # the keyword arguments and values perfbench/run.py passes, for each workload
    workloads = load_workloads(monkeypatch)
    model, train = (importlib.import_module(f"phenomnn.{m}") for m in ("model", "train"))
    for w in workloads.WORKLOADS.values():
        model.ModelConfig(
            variant=w.variant, t_layers=w.t_layers, d=w.d, alpha=w.alpha, lambda0=w.lambda0, lambda1=w.lambda1
        )
        train.TrainConfig(lr=w.lr, dropout=w.dropout, epochs=w.epochs, seed=1, early_stop_patience=w.epochs + 1)
