"""Workload definitions and the benchmark's own seeded hypergraph generator.

The generator is deliberately independent of ``phenomnn.data``: a later
change to the program can never change the inputs the benchmark measures.
Every random draw comes from one ``numpy.random.Generator(PCG64(seed))``, so
the same seed gives the same dataset directory byte for byte.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    """Input make-up, model and training settings, and fixed repetition counts."""

    name: str
    n: int
    m: int
    edge_min: int
    edge_max: int
    variant: str
    d: int
    dropout: float
    epochs: int
    # fixed repetition counts: every run does exactly this much work
    setup_reps: int
    bound_reps: int
    infer_reps: int
    # which step bound is timed: the variant's own, except on narrow-general,
    # where step_bound_general does not finish within a run (see README)
    bound: str
    communities: int = 5
    p_intra: float = 0.6
    d_x: int = 64
    noise: float = 4.0
    fractions: tuple = (0.2, 0.2, 0.6)
    lr: float = 0.01
    lambda0: float = 1.0
    lambda1: float = 1.0
    alpha: float = 0.1
    t_layers: int = 16


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide-simple",
            n=5000,
            m=400,
            edge_min=20,
            edge_max=60,
            variant="simple",
            d=64,
            dropout=0.0,
            epochs=10,
            setup_reps=5,
            bound_reps=7,
            infer_reps=9,
            bound="simple",
        ),
        Workload(
            name="narrow-general",
            n=10000,
            m=2000,
            edge_min=4,
            edge_max=8,
            variant="general",
            d=64,
            dropout=0.5,
            epochs=6,
            setup_reps=5,
            bound_reps=15,
            infer_reps=9,
            bound="simple",
        ),
        Workload(
            name="small-general",
            n=2000,
            m=1000,
            edge_min=4,
            edge_max=8,
            variant="general",
            d=16,
            dropout=0.5,
            epochs=60,
            setup_reps=9,
            bound_reps=1,
            infer_reps=61,
            bound="general",
        ),
    )
}


# The hypergraph and its labels are the same in every run of a workload: the
# step bound's power loop runs for as many iterations as the graph's spectrum
# asks (492-602 over ten seeded wide-simple graphs), which made the graph,
# not the program, the largest source of spread in step_bound_s.  The run's
# seed draws the features, the splits, the initial model and dropout.
STRUCTURE_SEED = 0


@dataclass
class Generated:
    edges: list
    features: np.ndarray
    labels: np.ndarray
    splits: np.ndarray


def generate(w: Workload, seed: int) -> Generated:
    """Community hypergraph with label-aligned noisy features.

    The structure (labels and edges) comes from ``STRUCTURE_SEED``, the rest
    from ``seed``.  Labels are a shuffled balanced assignment.  Edge sizes are
    spread evenly over ``[edge_min, edge_max]``; a ``p_intra`` share of the
    edges draws all its members from one community (homes balanced over the
    communities), the rest from all nodes.  Features are a random class
    center (standard normal entries) plus isotropic Gaussian noise.
    """
    rng = np.random.Generator(np.random.PCG64(STRUCTURE_SEED))
    labels = rng.permutation(np.arange(w.n) % w.communities)
    members = [np.flatnonzero(labels == c) for c in range(w.communities)]
    everyone = np.arange(w.n)
    # edge sizes, intra-community edges and home communities are fixed
    # multisets in a seeded order
    span = w.edge_max - w.edge_min + 1
    sizes = rng.permutation(w.edge_min + (np.arange(w.m) * span) // w.m)
    intra = rng.permutation(np.arange(w.m) < round(w.p_intra * w.m))
    homes = rng.permutation(np.arange(w.m) % w.communities)
    edges = []
    for k in range(w.m):
        pool = members[homes[k]] if intra[k] else everyone
        edges.append(np.sort(rng.choice(pool, size=int(sizes[k]), replace=False)))
    rng = np.random.Generator(np.random.PCG64(seed))
    centers = rng.standard_normal((w.communities, w.d_x))
    features = centers[labels] + w.noise * rng.standard_normal((w.n, w.d_x))
    order = rng.permutation(w.n)
    splits = np.full(w.n, "none", dtype="<U5")
    pos = 0
    for name, frac in zip(("train", "val", "test"), w.fractions):
        k = int(w.n * frac)
        splits[order[pos : pos + k]] = name
        pos += k
    return Generated(edges, features, labels.astype(np.int64), splits)


def write_dataset(g: Generated, directory: str) -> None:
    """Write the four files of the program's dataset-directory format."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "hypergraph.txt"), "w", encoding="utf-8") as f:
        f.write(f"{g.features.shape[0]} {len(g.edges)}\n")
        f.writelines(" ".join(map(str, e.tolist())) + "\n" for e in g.edges)
    with open(os.path.join(directory, "features.csv"), "w", encoding="utf-8") as f:
        f.writelines(",".join(map(repr, row)) + "\n" for row in g.features.tolist())
    with open(os.path.join(directory, "labels.txt"), "w", encoding="utf-8") as f:
        f.writelines(f"{v}\n" for v in g.labels.tolist())
    with open(os.path.join(directory, "splits.txt"), "w", encoding="utf-8") as f:
        f.writelines(f"{s}\n" for s in g.splits.tolist())
