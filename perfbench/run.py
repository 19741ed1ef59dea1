"""Fixed-work benchmark of phenomnn on three generated hypergraphs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload wide-simple --seed 1 --seconds 30 --trace 0

The run generates the workload's dataset from ``--seed`` with the
benchmark's own generator, writes it as a dataset directory, and drives the
public API on a fixed amount of work: ``load_dataset`` and
``build_expansion_operators`` (set-up, repeated), the workload's step bound
(repeated), one ``train`` call for a fixed number of epochs, and repeated
untaped ``forward`` calls on the trained model.  It then checks the outputs
against an independent implementation (``reference.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs span
wrappers (``tracing.py``) and prints the per-layer metrics instead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Human-readable detail (the
environment, each check) goes to standard error.

The amount of work is fixed per workload; ``--seconds`` does not stretch or
cut it (a time budget would make the timings measure the budget).
"""

import os

# one BLAS thread, fixed before numpy loads, so runs on a small shared machine
# do not depend on how many cores are free
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import reference  # noqa: E402
from speed import SpeedProbe, clock, paired, scaled  # noqa: E402
from tracing import TAPE_PRIMITIVES, EpochClock, ProbeInside, Tracer  # noqa: E402
from workloads import STRUCTURE_SEED, WORKLOADS, generate, write_dataset  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "step_bound_s": "s",
    "train_s": "s",
    "epoch_s": "s",
    "infer_s": "s",
    "peak_rss_mb": "MB",
    "test_acc": "fraction",
}

PER_LAYER = {
    "data.load_s": "s",
    "hypergraph.build_ops_s": "s",
    "hypergraph.ops_nnz": "count",
    "linalg.spmm_calls": "count",
    "linalg.spmm_s": "s",
    "linalg.eig_iters": "count",
    "linalg.eig_apply_s": "s",
    "model.forward_s": "s",
    "model.layer_s": "s",
    "model.taped_forward_s": "s",
    "autodiff.tape_ops": "count",
    "autodiff.backward_s": "s",
    **{f"autodiff.op.{p}.{d}_s": "s" for p in TAPE_PRIMITIVES for d in ("fwd", "bwd")},
    "autodiff.tapes_alive_max": "count",
    "autodiff.epoch_peak_mb": "MB",
    "train.adam_s": "s",
    "train.eval_s": "s",
    "train.trace_s": "s",
    "energy.energy_s": "s",
    "energy.grad_s": "s",
    "trace.epoch_s": "s",
    "trace.untraced_epoch_s": "s",
    "trace.overhead_s": "s",
    "trace.epoch_coverage": "fraction",
    "speed.probe_s": "s",
}

MODULES = ("data", "hypergraph", "linalg", "energy", "model", "autodiff", "train")


def import_program() -> dict:
    """Import phenomnn from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "phenomnn", "__init__.py")):
        raise SystemExit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, SRC)
    mods = {name: importlib.import_module(f"phenomnn.{name}") for name in MODULES}
    found = os.path.dirname(os.path.abspath(mods["model"].__file__))
    if found != os.path.join(SRC, "phenomnn"):
        raise SystemExit(f"perfbench: imported phenomnn from {found}, not {SRC}")
    return mods


def median(values) -> float:
    return float(statistics.median(values))


def timed(fn, *args, **kwargs):
    t0 = clock()
    out = fn(*args, **kwargs)
    return out, clock() - t0


class Checks:
    """Correctness checks; each one is an attempted operation."""

    def __init__(self):
        self.results = []
        self.failed = 0

    def run(self, name, fn, *args):
        try:
            ok, detail = fn(*args)
        except Exception as exc:  # a check that raises is a failed operation
            self.failed += 1
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        self.results.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.results)


def check_forward(logits, ref_logits):
    err = float(np.max(np.abs(logits - ref_logits)) / max(1.0, float(np.max(np.abs(ref_logits)))))
    return err <= 1e-8, f"max relative logit difference {err:.3e} (limit 1e-8)"


def check_gradient(mods, w, best, ops, g, ref, seed):
    """Directional central difference of the training loss (dropout off) vs the tape."""
    autodiff, model = mods["autodiff"], mods["model"]
    rows = np.flatnonzero(g.splits == "train")
    tape = autodiff.Tape()
    logits = model.build_taped_logits(tape, best, ops, g.features, None, None)
    loss = tape.softmax_cross_entropy(logits, g.labels[rows], rows)
    grads = autodiff.backward(tape, loss)
    params = {k: v.copy() for k, v in best.parameters().items()}
    rng = np.random.Generator(np.random.PCG64(seed))
    direction = {k: rng.standard_normal(v.shape) for k, v in params.items()}
    scale = np.sqrt(sum(float(np.sum(v * v)) for v in direction.values()))
    direction = {k: v / scale for k, v in direction.items()}
    analytic = sum(float(np.sum(grads[k] * direction[k])) for k in params)

    def ref_loss(t, signs=None):
        shifted = {k: params[k] + t * direction[k] for k in params}
        logits = reference.forward(g.features, shifted, ref, w.alpha, w.t_layers, signs)[2]
        return reference.cross_entropy(logits, g.labels, rows)

    # The loss is smooth only between ReLU kinks.  A kink inside [-eps, eps]
    # can add an error of the order of one unit's share of the derivative
    # (2e-5 relative was seen at n = 10,000), so a mismatch counts only at a
    # step whose ends have the same ReLU sign pattern, or at the smallest
    # step; 1e-7 still leaves round-off near 1e-6 relative.
    for eps in (1e-5, 1e-6, 1e-7):
        plus, minus = [], []
        fd = (ref_loss(eps, plus) - ref_loss(-eps, minus)) / (2.0 * eps)
        smooth = all(np.array_equal(a, b) for a, b in zip(plus, minus))
        err = abs(fd - analytic) / max(1e-3, abs(analytic))
        if err <= 1e-5 or smooth:
            break
    loss_err = abs(float(loss.value) - ref_loss(0.0))
    ok = err <= 1e-5 and loss_err <= 1e-10
    return ok, (
        f"directional derivative: tape {analytic:.10e}, central difference {fd:.10e} "
        f"(step {eps:g}, kink-free {smooth}), relative error {err:.3e} (limit 1e-5); "
        f"loss difference {loss_err:.1e} (limit 1e-10)"
    )


def check_bound(reported, ref_bound):
    # one-sided: a tighter (smaller) certified bound passes too
    ok = reported <= ref_bound * (1.0 + 1e-6)
    return ok, f"reported {reported:.12g} vs Lanczos {ref_bound:.12g} (must not exceed by 1e-6 relative)"


def check_energy_trace(w, trace_rows, g, best, ref, ref_bound):
    """The program's descent-trace energies vs the reference; monotone where alpha < bound."""
    params = best.parameters()
    fx, _, _ = reference.forward(g.features, params, ref, w.alpha, 0)
    h0, h1 = reference.compat(params, fx.shape[1])
    y = fx
    mine = []
    for t in range(w.t_layers + 1):
        mine.append((reference.energy(y, fx, ref, h0, h1), bool(np.min(y) >= 0.0)))
        y = reference.step(y, fx, ref, h0, h1, w.alpha)
    theirs = [float(r["energy"]) for r in trace_rows]
    if len(theirs) != len(mine):
        return False, f"trace has {len(theirs)} rows, expected {len(mine)}"
    err = max(abs(a - b) / max(1.0, abs(b)) for a, (b, _) in zip(theirs, mine))
    ok = err <= 1e-8
    detail = f"energy relative difference {err:.3e} (limit 1e-8)"
    if ref_bound is not None and w.bound == w.variant and w.alpha < ref_bound:
        first = next((t for t, (_, feas) in enumerate(mine) if feas), len(mine))
        rises = [t for t in range(first, len(theirs) - 1) if theirs[t + 1] > theirs[t] * (1.0 + 1e-12)]
        ok = ok and not rises
        detail += f"; alpha {w.alpha} < bound {ref_bound:.6g}, non-increasing from iterate {first}: {not rises}"
    return ok, detail


def check_accuracy(acc, g):
    rows = np.flatnonzero(g.splits == "test")
    majority = float(np.bincount(g.labels[rows]).max() / rows.size)
    return acc > majority, f"test accuracy {acc:.4f} vs majority-class share {majority:.4f}"


def run(mods, w, seed: int, datadir: str, trace: bool) -> dict:
    data, hypergraph, model, train = mods["data"], mods["hypergraph"], mods["model"], mods["train"]
    g = generate(w, seed)
    write_dataset(g, datadir)
    probe = SpeedProbe()
    probe()  # first call pays one-off costs
    probe.times.clear()

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(mods)

    load_s, build_s = [], []

    def set_up():
        ds, t_load = timed(data.load_dataset, datadir)
        ops, t_build = timed(hypergraph.build_expansion_operators, ds.hypergraph, w.lambda0, w.lambda1)
        load_s.append(t_load)
        build_s.append(t_build)
        return ds, ops

    (ds, ops), setup_raw, setup_s = paired(probe, w.setup_reps, set_up)

    mcfg = model.ModelConfig(
        variant=w.variant, t_layers=w.t_layers, d=w.d, alpha=w.alpha, lambda0=w.lambda0, lambda1=w.lambda1
    )
    tcfg = train.TrainConfig(
        lr=w.lr, dropout=w.dropout, epochs=w.epochs, seed=seed, early_stop_patience=w.epochs + 1
    )
    # the bound is taken at a model initialised from the structure seed, so
    # that the eigensolver's work is the same in every run of a workload
    initial = model.init_model(mcfg, ds.features.shape[1], ds.n_classes, seed=STRUCTURE_SEED)
    def step_bound():
        if w.bound == "simple":
            return model.step_bound_simple(ops)
        return model.step_bound_general(ops, initial.params)

    if tracer:
        tracer.active = True
    inside = ProbeInside(model, probe, every=250)
    bound_raw, bound_scaled = [], []
    before = probe()
    try:
        for _ in range(w.bound_reps):
            inside.samples.clear()
            t0 = clock()
            bound = step_bound()
            t = clock() - t0 - sum(inside.samples)
            after = probe()
            speed = statistics.mean([before, *inside.samples, after])
            bound_raw.append(t)
            bound_scaled.append(scaled(t, speed, speed))
            before = after
    finally:
        inside.close()
    step_bound_s = median(bound_scaled)
    if tracer:
        tracer.active = False
        bound_window = tracer.take()

    epoch_clock = EpochClock(train, probe, tracer)
    try:
        t_start = clock()
        best, metrics = train.train(ds, mcfg, tcfg)
        t_end = clock()
    finally:
        epoch_clock.close()
    if len(epoch_clock.epoch_seconds()) != w.epochs:
        raise SystemExit(f"perfbench: epoch clock saw {len(epoch_clock.ends)} epochs, expected {w.epochs}")
    # train's own time without the probes at epoch boundaries: the part before
    # the first epoch, the epochs, and the part after the last, each scaled by
    # the probes next to it
    p = epoch_clock.probes
    head = epoch_clock.starts[0] - t_start - p[0]
    tail = t_end - epoch_clock.ends[-1] - p[-1]
    p_after = probe()
    train_raw = head + sum(epoch_clock.epoch_seconds()) + tail
    train_s = scaled(head, p[0], p[0]) + sum(epoch_clock.epoch_scaled()) + scaled(tail, p[-1], p_after)
    if tracer:
        trace_window = tracer.take()

    infer_windows = []

    def infer():
        out = model.forward(ds.features, best, ops)
        if tracer:
            infer_windows.append(tracer.take())
        return out

    (_, logits), infer_raw, infer_s = paired(probe, w.infer_reps, infer)
    if tracer:
        tracer.active = False
        tracer.close()
    attempted = w.setup_reps + w.bound_reps + w.epochs + w.infer_reps

    test_rows = np.flatnonzero(g.splits == "test")
    test_acc = float(np.mean(np.argmax(logits[test_rows], axis=1) == g.labels[test_rows]))

    ref = reference.RefOps.from_edges(w.n, g.edges, w.lambda0, w.lambda1)
    checks = Checks()
    ref_logits = reference.forward(g.features, best.parameters(), ref, w.alpha, w.t_layers)[2]
    checks.run("forward matches reference", check_forward, logits, ref_logits)
    checks.run("tape gradient matches central difference", check_gradient, mods, w, best, ops, g, ref, seed)
    # Only the simple bound is checked: step_bound_general's power loop stops
    # at its iteration cap and, on some inputs, reports a bound above the
    # Lanczos one (see CHANGES.md), which would make the failure count
    # depend on the seed.
    ref_bound = reference.lanczos_bound_simple(ref) if w.bound == "simple" else None
    if ref_bound is not None:
        checks.run("step bound not above Lanczos bound", check_bound, bound.value, ref_bound)
    checks.run("descent-trace energies", check_energy_trace, w, metrics.energy_trace, g, best, ref, ref_bound)
    checks.run("test accuracy above majority share", check_accuracy, test_acc, g)
    attempted += len(checks.results)
    for name, ok, detail in checks.results:
        print(f"check {'PASS' if ok else 'FAIL'}: {name}: {detail}", file=sys.stderr)
    raw = {
        "setup": median(setup_raw),
        "step_bound": median(bound_raw),
        "train": train_raw,
        "epoch": median(epoch_clock.epoch_seconds()),
        "infer": median(infer_raw),
        "probe": median(probe.times),
    }
    print(f"raw CPU seconds: {json.dumps(raw)}", file=sys.stderr)

    if not trace:
        values = {
            "setup_s": setup_s,
            "step_bound_s": step_bound_s,
            "train_s": train_s,
            "epoch_s": median(epoch_clock.epoch_scaled()),
            "infer_s": infer_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "test_acc": test_acc,
        }
        units = END_TO_END
    else:
        values = per_layer_values(epoch_clock, tracer, bound, bound_window, trace_window, infer_windows,
                                  load_s, build_s, ops, infer_raw, probe)
        units = PER_LAYER
    return {
        "correct": checks.correct,
        "attempted": attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }


def per_layer_values(epoch_clock, tracer, bound, bound_window, trace_window, infer_windows,
                     load_s, build_s, ops, infer_raw, probe) -> dict:
    """Per-layer metrics in raw CPU seconds; the trace.* epoch times are probe-scaled."""
    modes = [mode for mode, _ in epoch_clock.epochs]
    raw_epochs = epoch_clock.epoch_seconds()
    scaled_epochs = epoch_clock.epoch_scaled()
    on = [(win, t) for (mode, win), t in zip(epoch_clock.epochs, raw_epochs) if mode == "on"]

    def per_epoch(name):
        return median([win.total(name) for win, _ in on])

    layer_samples = [s for win in infer_windows for s in win.samples.get("model.layer", [])]
    apply_samples = bound_window.samples.get("linalg.eig_apply", [])
    traced_epoch = median([t for m, t in zip(modes, scaled_epochs) if m == "on"])
    untraced_epoch = median([t for m, t in zip(modes, scaled_epochs) if m == "off"])
    values = {
        "data.load_s": median(load_s),
        "hypergraph.build_ops_s": median(build_s),
        "hypergraph.ops_nnz": sum(int(v.nnz) for v in vars(ops).values() if hasattr(v, "nnz")),
        "linalg.spmm_calls": infer_windows[-1].calls("linalg.spmm"),
        "linalg.spmm_s": median([win.total("linalg.spmm") for win in infer_windows]),
        "linalg.eig_iters": bound.eig.iterations,
        "linalg.eig_apply_s": median(apply_samples) if apply_samples else 0.0,
        "model.forward_s": median(infer_raw),
        "model.layer_s": median(layer_samples) if layer_samples else 0.0,
        "model.taped_forward_s": per_epoch("model.taped_forward"),
        "autodiff.tape_ops": tracer.tape_ops,
        "autodiff.backward_s": per_epoch("autodiff.backward"),
        "autodiff.tapes_alive_max": epoch_clock.tapes_alive_max,
        "autodiff.epoch_peak_mb": epoch_clock.epoch_peak_mb,
        "train.adam_s": per_epoch("train.adam"),
        "train.eval_s": per_epoch("train.eval"),
        "train.trace_s": trace_window.total("train.trace"),
        "energy.energy_s": trace_window.total("energy.energy"),
        "energy.grad_s": trace_window.total("energy.grad"),
        "trace.epoch_s": traced_epoch,
        "trace.untraced_epoch_s": untraced_epoch,
        "trace.overhead_s": traced_epoch - untraced_epoch,
        "trace.epoch_coverage": median([win.covered / t for win, t in on]),
        "speed.probe_s": median(probe.times),
    }
    for p in TAPE_PRIMITIVES:
        for d in ("fwd", "bwd"):
            values[f"autodiff.op.{p}.{d}_s"] = per_epoch(f"autodiff.op.{p}.{d}")
    return values


def environment(mods) -> dict:
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        blas = f"{cfg['Build Dependencies']['blas']['name']} {cfg['Build Dependencies']['blas']['version']}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "phenomnn": importlib.import_module("phenomnn").__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    mods = import_program()
    w = WORKLOADS[args.workload]
    print(f"environment: {json.dumps(environment(mods))}", file=sys.stderr)
    datadir = os.path.join(HERE, "_data", f"{w.name}-{args.seed}-{os.getpid()}")
    try:
        result = run(mods, w, args.seed, datadir, bool(args.trace))
    finally:
        shutil.rmtree(datadir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
