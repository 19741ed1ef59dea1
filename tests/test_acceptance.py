"""Acceptance suite: every binding criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
passing runs).  The desk-scale citation-benchmark reproduction is conditional
on a converted dataset being present and is skipped otherwise.
"""

import os
import time

import numpy as np
import pytest

from phenomnn.autodiff import Tape, check_gradients
from phenomnn.data import SyntheticSpec, generate_synthetic
from phenomnn.energy import EnergyParams
from phenomnn.hypergraph import build_expansion_operators
from phenomnn.model import (
    ModelConfig,
    Propagation,
    build_taped_logits,
    init_model,
    layer,
    step_bound_general,
    step_bound_simple,
)
from phenomnn.train import TrainConfig, train
from helpers import criterion_3_problems, fd_gradient, node_order_operators, one_layer, random_hypergraph, rel_err, rng_for
from oracles import (
    build_clique,
    build_star_bipartite,
    build_star_normalized,
    energy_and_grad,
    energy_bruteforce,
    energy_trace_general,
    energy_trace_simple,
    laplacian_quad,
    messagepassing_layer,
    prox_nonneg,
    uniform_edge_size,
    z_star,
)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_energy_equivalence_oracle():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = rng_for(9000 + seed)
        n = int(rng.integers(4, 21))
        m = int(rng.integers(2, 13))
        d = int(rng.integers(1, 5))
        uniform = seed % 4 == 0
        if uniform:
            size = int(rng.integers(2, min(5, n + 1)))
            hg = random_hypergraph(rng, n, m, smin=size, smax=size)
        else:
            hg = random_hypergraph(rng, n, m)
        l0 = float(rng.uniform(0.1, 3.0))
        l1 = float(rng.uniform(0.1, 3.0))
        a_c, d_c = build_clique(hg)
        a_s, d_s = build_star_normalized(hg)
        pid = EnergyParams.identity(d)
        y = rng.standard_normal((n, d))
        fx = rng.standard_normal((n, d))
        z = z_star(hg, y)
        brute = energy_bruteforce(y, z, fx, hg, pid, l0, l1).smooth
        # the kernel-derived energy: summation form at pair weight lambda0/2, and trace form
        ops = node_order_operators(hg, l0, l1)
        h0, h1 = np.eye(d) + 0.3 * rng.standard_normal((d, d)), np.eye(d) + 0.3 * rng.standard_normal((d, d))
        for variant, params in (("simple", pid), ("general", EnergyParams(h0, h1))):
            mine = energy_and_grad(y, fx, ops, params, variant).smooth
            summed = energy_bruteforce(y, z, fx, hg, params, 0.5 * l0, l1).smooth
            worst = max(worst, abs(mine - summed) / max(1.0, abs(summed)))
            if variant == "simple":
                trace = energy_trace_simple(y, fx, hg, l0, l1)
            else:
                trace = energy_trace_general(y, fx, hg, params, l0, l1)
            worst = max(worst, abs(mine - trace) / max(1.0, abs(trace)))
        fit = float(np.sum((y - fx) ** 2))
        q_c = laplacian_quad(a_c @ y, d_c, y)
        q_s = laplacian_quad(a_s @ y, d_s, y)
        _, _, l_s = build_star_bipartite(hg)
        stacked = np.vstack([y, z])
        bipart = float(np.sum(stacked * (l_s @ stacked)))
        scale = max(1.0, abs(brute))
        worst = max(worst, abs(brute - (fit + 2 * l0 * q_c + l1 * bipart)) / scale)
        worst = max(worst, abs(brute - (fit + 2 * l0 * q_c + l1 * q_s)) / scale)
        if uniform:
            me = uniform_edge_size(hg)
            beta = 2 * l0 + l1 / me
            graph = brute - fit
            worst = max(worst, abs(graph - beta * q_c) / max(1.0, abs(graph)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    report(1, ok, f"kernel vs brute-force vs trace energies, worst rel err {worst:.2e}, {elapsed:.1f}s (<10s)")


def test_criterion_2_gradient_correctness():
    start = time.perf_counter()
    worst_energy = 0.0
    for seed in range(3):
        rng = rng_for(9100 + seed)
        n, d = int(rng.integers(8, 14)), int(rng.integers(2, 4))
        hg = random_hypergraph(rng, n, int(rng.integers(4, 9)))
        l0, l1 = float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0))
        ops = node_order_operators(hg, l0, l1)
        h0 = np.eye(d) + 0.2 * rng.standard_normal((d, d))
        h1 = np.eye(d) + 0.2 * rng.standard_normal((d, d))
        y = rng.standard_normal((n, d))
        fx = rng.standard_normal((n, d))
        # the kernel-derived gradient vs central differences of the summation form
        compat = {"simple": EnergyParams.identity(d), "general": EnergyParams(h0, h1)}
        for variant, params in compat.items():
            fd = fd_gradient(lambda v: energy_bruteforce(v, z_star(hg, v), fx, hg, params, 0.5 * l0, l1).smooth, y)
            worst_energy = max(worst_energy, rel_err(energy_and_grad(y, fx, ops, params, variant).grad, fd))

    worst_loss = 0.0
    for variant in ("simple", "general"):
        ds = generate_synthetic(
            SyntheticSpec(nodes_per_community=10, edges=12, feature_dim=4, noise_std=0.8, seed=17)
        )
        cfg = ModelConfig(variant=variant, t_layers=3, d=6, alpha=0.4, lambda0=1.1, lambda1=0.9)
        model = init_model(cfg, 4, ds.n_classes, seed=17)
        ops = build_expansion_operators(ds.hypergraph, cfg.lambda0, cfg.lambda1)
        rows = ds.split_indices("train")

        def build(_params):
            tape = Tape()
            logits = build_taped_logits(tape, model, ops, ds.features)
            return tape, tape.softmax_cross_entropy(logits, ds.labels[rows], rows)

        rep = check_gradients(build, model.parameters(), samples=256, step=1e-5, seed=17)
        worst_loss = max(worst_loss, rep["max_rel_err"])
    elapsed = time.perf_counter() - start
    ok = worst_energy <= 1e-6 and worst_loss <= 1e-5 and elapsed < 60.0
    report(
        2,
        ok,
        f"energy grads {worst_energy:.2e} (<=1e-6), unrolled loss grads {worst_loss:.2e} (<=1e-5), "
        f"{elapsed:.1f}s (<60s)",
    )


def test_criterion_3_monotone_convergence():
    start = time.perf_counter()
    worst_gen, worst_sim = 0.0, 0.0
    any_increase_at_5x = False
    for hg, bound_ops, h0, h1, fx in criterion_3_problems():
        # the bounds of the hypergraph's operators, the descent on the node-order reference
        ops = node_order_operators(hg, bound_ops.lambda0, bound_ops.lambda1)
        d = fx.shape[1]
        pg = EnergyParams(h0, h1)
        bound_g = step_bound_general(bound_ops, pg)
        prop = Propagation(ops, pg, "general", 0.9 * bound_g.value)
        y = prox_nonneg(fx)
        prev = energy_and_grad(y, fx, ops, pg, "general").smooth
        for _ in range(100):
            y = layer(y, prop.c * fx, prop)
            e = energy_and_grad(y, fx, ops, pg, "general").smooth
            worst_gen = max(worst_gen, (e - prev) / max(1.0, abs(prev)))
            prev = e

        bound_s = step_bound_simple(bound_ops)
        alpha = 0.9 * bound_s.value
        ps = EnergyParams.identity(d)
        prop = Propagation(ops, ps, "simple", alpha)
        y = prox_nonneg(fx)
        prev = energy_and_grad(y, fx, ops, ps, "simple").smooth
        for _ in range(100):
            y = layer(y, prop.c * fx, prop)
            e = energy_and_grad(y, fx, ops, ps, "simple").smooth
            worst_sim = max(worst_sim, (e - prev) / max(1.0, abs(prev)))
            prev = e

        prop = Propagation(ops, ps, "simple", 5.0 * bound_s.value)
        y = prox_nonneg(fx)
        prev = energy_and_grad(y, fx, ops, ps, "simple").smooth
        for _ in range(30):
            y = layer(y, prop.c * fx, prop)
            e = energy_and_grad(y, fx, ops, ps, "simple").smooth
            if e > prev * (1 + 1e-9):
                any_increase_at_5x = True
                break
            prev = e
    elapsed = time.perf_counter() - start
    ok = worst_gen <= 1e-9 and worst_sim <= 1e-9 and any_increase_at_5x and elapsed < 60.0
    report(
        3,
        ok,
        f"no increase at 0.9x bound (worst gen {worst_gen:.2e}, simple {worst_sim:.2e}); "
        f"5x bound breaks monotonicity: {any_increase_at_5x}; {elapsed:.1f}s (<60s)",
    )


def test_criterion_4_form_equivalences():
    worst_mp, worst_collapse = 0.0, 0.0
    for seed in range(6):
        rng = rng_for(9300 + seed)
        n, d = int(rng.integers(4, 12)), int(rng.integers(2, 5))
        hg = random_hypergraph(rng, n, int(rng.integers(2, 8)))
        l0, l1 = float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0))
        ops = node_order_operators(hg, l0, l1)
        noise = 0.0 if seed % 2 == 0 else 0.3
        h0 = np.eye(d) + noise * rng.standard_normal((d, d))
        h1 = np.eye(d) + noise * rng.standard_normal((d, d))
        params, alpha = EnergyParams(h0, h1), float(rng.uniform(0.1, 0.9))
        y = rng.standard_normal((n, d))
        fx = rng.standard_normal((n, d))
        a = one_layer(y, fx, ops, params, "general", alpha)
        b = messagepassing_layer(y, fx, ops, params, alpha)
        worst_mp = max(worst_mp, float(np.max(np.abs(a - b))))
        pid = EnergyParams.identity(d)
        c = one_layer(y, fx, ops, pid, "general", alpha)
        s = one_layer(y, fx, ops, pid, "simple", alpha)
        worst_collapse = max(worst_collapse, float(np.max(np.abs(c - s))))
    ok = worst_mp <= 1e-12 and worst_collapse <= 1e-12
    report(
        4,
        ok,
        f"matrix vs node-wise {worst_mp:.2e} (<=1e-12); identity collapse {worst_collapse:.2e} (<=1e-12)",
    )


def test_criterion_5_learning_sanity():
    start = time.perf_counter()

    def run(noise, seed, zero_weights=False):
        spec = SyntheticSpec(
            communities=2, nodes_per_community=100, edges=120, edge_size_min=4,
            edge_size_max=8, p_intra=1.0, feature_dim=8, noise_std=noise, seed=seed,
        )
        ds = generate_synthetic(spec)
        if zero_weights:
            cfg = ModelConfig(variant="simple", t_layers=1, d=16, alpha=1.0, lambda0=0.0, lambda1=0.0)
        else:
            cfg = ModelConfig(variant="simple", t_layers=8, d=16, alpha=0.5, lambda0=1.0, lambda1=1.0)
        _, metrics = train(ds, cfg, TrainConfig(lr=0.05, epochs=200, seed=seed))
        return metrics.final_test_acc

    seeds = range(5)
    clean = float(np.mean([run(0.5, s) for s in seeds]))
    noisy = float(np.mean([run(1.5, s) for s in seeds]))
    ablation = float(np.mean([run(1.5, s, zero_weights=True) for s in seeds]))
    elapsed = time.perf_counter() - start
    ok = clean >= 0.95 and (noisy - ablation) >= 0.03 and elapsed < 120.0
    report(
        5,
        ok,
        f"clean acc {clean:.3f} (>=0.95); noisy margin over ablation "
        f"{noisy - ablation:+.3f} (>=+0.03, {noisy:.3f} vs {ablation:.3f}); {elapsed:.1f}s (<2min)",
    )


def test_criterion_6_citation_benchmark_conditional():
    data_dir = os.environ.get("PHENOMNN_CORA_DIR", os.path.join(os.path.dirname(__file__), "..", "data", "cora_coauthorship"))
    if not os.path.isdir(data_dir):
        print("\nACCEPTANCE 6: SKIP - converted citation dataset not present "
              "(set PHENOMNN_CORA_DIR to run)")
        pytest.skip("converted citation dataset not available")
    from phenomnn.data import load_dataset, make_splits

    ds = load_dataset(data_dir)
    accs = []
    for seed in range(10):
        ds.splits = make_splits(ds.hypergraph.n, seed=seed)
        ds.validate()
        cfg = ModelConfig(variant="simple", t_layers=16, d=64, alpha=0.1, lambda0=20.0, lambda1=80.0)
        _, metrics = train(ds, cfg, TrainConfig(lr=0.01, dropout=0.7, epochs=200, seed=seed))
        accs.append(metrics.final_test_acc)
    mean = float(np.mean(accs))
    ok = abs(mean * 100.0 - 77.62) <= 5.0
    report(6, ok, f"mean accuracy {mean * 100:.2f}% vs published 77.62% (+/-5.0)")


def test_criterion_7_depth_scaling():
    ds = generate_synthetic(
        SyntheticSpec(nodes_per_community=150, edges=200, feature_dim=16, noise_std=1.0, seed=23)
    )

    def timed(t_layers, warm=False):
        cfg = ModelConfig(variant="simple", t_layers=t_layers, d=32, alpha=0.5, lambda0=1.0, lambda1=1.0)
        tc = TrainConfig(lr=0.01, epochs=5, seed=23)
        t0 = time.perf_counter()
        train(ds, cfg, tc)
        return time.perf_counter() - t0

    timed(16, warm=True)  # warmup
    # Alternate the depths, so that a burst of load from other processes on the
    # machine slows runs of both depths rather than only the deeper ones.
    runs = [(timed(16), timed(32)) for _ in range(3)]
    t16 = min(r[0] for r in runs)
    t32 = min(r[1] for r in runs)
    ratio = t32 / t16
    ok = ratio <= 2.5
    report(7, ok, f"train wall time T=32 / T=16 = {ratio:.2f} (<=2.5)")
