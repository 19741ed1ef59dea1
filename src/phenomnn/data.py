"""Dataset ingestion, split generation, and synthetic community hypergraphs.

A dataset directory holds four text files: ``hypergraph.txt`` (incidence
grammar), ``features.csv`` (n rows of comma-separated floats, no header),
``labels.txt`` (one integer class per line, ``-1`` for unlabeled, which
only a ``none`` node may be) and ``splits.txt`` (one of train/val/test/none
per line).  Floats round-trip exactly through save/load; ``save_dataset``
writes hyperedge ``k`` from column ``k`` of the incidence matrix ``B``.

``load_dataset`` parses ``features.csv`` and ``labels.txt`` with numpy's C
reader, ``np.loadtxt``, when the file holds only the bytes the format needs
(``_FEATURE_BYTES``, ``_LABEL_BYTES``).  Any other file, and any file that
reader rejects or whose features are not finite, is read line by line with
``float`` and ``int``.  ``splits.txt`` is always read line by line: on a file
of short words the C reader is no faster.  The two readers give the same
arrays bit for bit on every file the line reader accepts, so the fast path
changes no result; the line reader keeps its leniency (``float("1_0")`` is
10.0) and raises every error, naming the file and the line: a
``DatasetError`` for a malformed value, a ``DatasetShapeMismatch`` for a
ragged row.  An empty file loads as no rows and fails ``Dataset.validate``.

All randomness in this module flows through numpy's PCG64 generator seeded
explicitly, so a given seed reproduces the same splits and synthetic data
anywhere this generator is available.

Converting third-party benchmark dumps (e.g. pickled incidence dictionaries
with dense feature arrays) is a thin external step: write each hyperedge's
node list as one line of ``hypergraph.txt``, dump the feature matrix row-wise
into ``features.csv``, and emit the provided label vector and split masks
verbatim.  Such converters stay outside this package.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

from .hypergraph import Hypergraph, load_hypergraph

__all__ = [
    "DatasetError",
    "MissingDatasetFile",
    "DatasetShapeMismatch",
    "UnlabeledTrainNode",
    "Dataset",
    "load_dataset",
    "save_dataset",
    "make_splits",
    "SyntheticSpec",
    "generate_synthetic",
]

SPLIT_NAMES = ("train", "val", "test", "none")


class DatasetError(ValueError):
    """Base class for dataset validation failures."""


class MissingDatasetFile(DatasetError):
    pass


class DatasetShapeMismatch(DatasetError):
    pass


class UnlabeledTrainNode(DatasetError):
    pass


@dataclass(eq=False)
class Dataset:
    hypergraph: Hypergraph
    features: np.ndarray
    labels: np.ndarray
    splits: np.ndarray
    n_classes: int

    def split_indices(self, name: str) -> np.ndarray:
        if name not in SPLIT_NAMES:
            raise ValueError(f"unknown split {name!r}")
        return np.flatnonzero(self.splits == name)

    def validate(self) -> None:
        n = self.hypergraph.n
        if self.features.shape[0] != n:
            raise DatasetShapeMismatch(
                f"features have {self.features.shape[0]} rows but hypergraph has {n} nodes"
            )
        if self.labels.shape[0] != n:
            raise DatasetShapeMismatch(f"labels have {self.labels.shape[0]} entries for {n} nodes")
        if self.splits.shape[0] != n:
            raise DatasetShapeMismatch(f"splits have {self.splits.shape[0]} entries for {n} nodes")
        below = np.flatnonzero(self.labels < -1)
        if below.size:
            i = int(below[0])
            raise DatasetError(f"node {i} has label {int(self.labels[i])}; a label is a class id, or -1 for unlabeled")
        labeled = self.labels >= 0
        if not labeled.any():
            raise DatasetError("dataset has no labeled nodes")
        if self.labels[labeled].max() >= self.n_classes:
            raise DatasetError("label ids exceed the class count")
        bad = np.flatnonzero((self.splits == "train") & ~labeled)
        if bad.size:
            raise UnlabeledTrainNode(f"train node {int(bad[0])} is unlabeled")
        bad = np.flatnonzero(((self.splits == "val") | (self.splits == "test")) & ~labeled)
        if bad.size:
            i = int(bad[0])
            raise DatasetError(f"{self.splits[i]} node {i} is unlabeled; evaluation nodes need a label")


def _require(path: str) -> str:
    if not os.path.isfile(path):
        raise MissingDatasetFile(f"missing dataset file: {path}")
    return path


# The bytes a file may hold for numpy's C reader to parse it.  On these,
# ``np.loadtxt`` accepts the same tokens as ``float`` and ``int`` and gives the
# same values; outside them it does not (it strips ``\x1c``-``\x1f`` around a
# float, and reads some non-ASCII letters as digits of an integer).
_FEATURE_BYTES = b"0123456789.eE+-, \t\r\n"
_LABEL_BYTES = b"0123456789+- \t\r\n"


def _loadtxt(path: str, alphabet: bytes, **kwargs):
    """``np.loadtxt`` of a file made of ``alphabet`` bytes only; None for any other file or a parse error."""
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            if chunk.translate(None, alphabet):
                return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file with no data; Dataset.validate rejects it
            return np.loadtxt(path, comments=None, encoding="utf-8", **kwargs)
    except ValueError:
        return None


def _read_features(path: str) -> np.ndarray:
    features = _loadtxt(path, _FEATURE_BYTES, delimiter=",", dtype=np.float64, ndmin=2)
    if features is not None and np.isfinite(features).all():
        return features
    rows = []
    linenos = []
    width = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                vals = [float(tok) for tok in line.split(",")]
            except ValueError:
                raise DatasetError(f"{path}:{lineno}: malformed feature row") from None
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise DatasetShapeMismatch(f"{path}:{lineno}: expected {width} columns, got {len(vals)}")
            rows.append(vals)
            linenos.append(lineno)
    features = np.array(rows, dtype=np.float64) if rows else np.zeros((0, 0))
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        r, c = bad[0]
        raise DatasetError(f"{path}:{linenos[r]}: non-finite feature {float(features[r, c])!r} in column {c + 1}")
    return features


_INT64 = np.iinfo(np.int64)


def _read_labels(path: str) -> np.ndarray:
    labels = _loadtxt(path, _LABEL_BYTES, dtype=np.int64, ndmin=1)
    if labels is not None and labels.ndim == 1:
        return labels
    values = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            token = line.strip()
            if not token:
                continue
            try:
                value = int(token)
            except ValueError:
                raise DatasetError(f"{path}:{lineno}: malformed label {token!r}") from None
            if not _INT64.min <= value <= _INT64.max:
                raise DatasetError(f"{path}:{lineno}: label {token!r} does not fit in 64 bits")
            values.append(value)
    return np.array(values, dtype=np.int64)


def _read_splits(path: str) -> np.ndarray:
    names = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            name = line.strip()
            if not name:
                continue
            if name not in SPLIT_NAMES:
                raise DatasetError(f"{path}:{lineno}: unknown split {name!r}")
            names.append(name)
    return np.array(names, dtype=str)


def load_dataset(directory) -> Dataset:
    """Load and validate a dataset directory; ``MissingDatasetFile`` names the first
    of its four files that is missing, before any is read."""
    names = ("hypergraph.txt", "features.csv", "labels.txt", "splits.txt")
    paths = [_require(os.path.join(str(directory), name)) for name in names]
    graph_path, features_path, labels_path, splits_path = paths
    hg = load_hypergraph(graph_path)
    features = _read_features(features_path)
    labels = _read_labels(labels_path)
    splits = _read_splits(splits_path)
    labeled = labels[labels >= 0]
    n_classes = int(labeled.max()) + 1 if labeled.size else 0
    ds = Dataset(hg, features, labels, splits, n_classes)
    ds.validate()
    return ds


def save_dataset(directory, ds: Dataset) -> None:
    """Write the dataset directory; floats are emitted with exact round-trip repr."""
    directory = str(directory)
    os.makedirs(directory, exist_ok=True)
    b = ds.hypergraph.incidence.tocsc()  # column k holds hyperedge k's ids, sorted
    ids, cuts = b.indices.tolist(), b.indptr.tolist()
    with open(os.path.join(directory, "hypergraph.txt"), "w", encoding="utf-8") as f:
        f.write(f"{ds.hypergraph.n} {ds.hypergraph.m}\n")
        f.writelines(" ".join(map(str, ids[lo:hi])) + "\n" for lo, hi in zip(cuts, cuts[1:]))
    with open(os.path.join(directory, "features.csv"), "w", encoding="utf-8") as f:
        for row in ds.features:
            f.write(",".join(repr(float(v)) for v in row) + "\n")
    with open(os.path.join(directory, "labels.txt"), "w", encoding="utf-8") as f:
        for v in ds.labels:
            f.write(f"{int(v)}\n")
    with open(os.path.join(directory, "splits.txt"), "w", encoding="utf-8") as f:
        for s in ds.splits:
            f.write(f"{s}\n")


# the train, val and test shares of ``make_splits``
SPLIT_FRACTIONS = (0.5, 0.25, 0.25)


def make_splits(n: int, seed: int = 0) -> np.ndarray:
    """Uniformly random disjoint train/val/test assignment, deterministic per seed.

    Counts are ``floor(n * fraction)`` per split of ``SPLIT_FRACTIONS``; any
    remainder stays 'none'.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(n)
    out = np.array(["none"] * n, dtype="<U5")
    counts = [int(np.floor(n * f)) for f in SPLIT_FRACTIONS]
    pos = 0
    for name, k in zip(("train", "val", "test"), counts):
        out[order[pos : pos + k]] = name
        pos += k
    return out


@dataclass
class SyntheticSpec:
    """Community-structured generator settings.

    Each hyperedge draws its members from a single uniformly-chosen community
    with probability ``p_intra``, otherwise uniformly from all nodes.  Node
    features are the community mean (a scaled one-hot direction) plus
    Gaussian noise; labels are the community ids.
    """

    communities: int = 2
    nodes_per_community: int = 100
    edges: int = 60
    edge_size_min: int = 4
    edge_size_max: int = 8
    p_intra: float = 1.0
    feature_dim: int = 8
    noise_std: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.communities < 1 or self.nodes_per_community < 1:
            raise ValueError("need at least one community with at least one node")
        if not (0.0 <= self.p_intra <= 1.0):
            raise ValueError(f"p_intra must lie in [0, 1], got {self.p_intra}")
        if self.edge_size_min < 1 or self.edge_size_max < self.edge_size_min:
            raise ValueError("edge sizes must satisfy 1 <= min <= max")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if self.edges < 0:
            raise ValueError(f"edges must be >= 0, got {self.edges}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.noise_std < np.inf:
            raise ValueError(f"noise_std must be nonnegative and finite, got {self.noise_std}")


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic community hypergraph with label-aligned noisy features."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n = spec.communities * spec.nodes_per_community
    labels = np.repeat(np.arange(spec.communities), spec.nodes_per_community)
    means = np.zeros((spec.communities, spec.feature_dim))
    for c in range(spec.communities):
        means[c, c % spec.feature_dim] = 1.0
    features = means[labels] + spec.noise_std * rng.standard_normal((n, spec.feature_dim))

    edges = []
    members = [np.flatnonzero(labels == c) for c in range(spec.communities)]
    for _ in range(spec.edges):
        size = int(rng.integers(spec.edge_size_min, spec.edge_size_max + 1))
        if rng.random() < spec.p_intra:
            pool = members[int(rng.integers(spec.communities))]
        else:
            pool = np.arange(n)
        size = min(size, pool.size)
        edges.append(rng.choice(pool, size=size, replace=False).tolist())
    hg = Hypergraph.from_edges(n, edges)
    splits = make_splits(n, seed=spec.seed)
    ds = Dataset(hg, features, labels.astype(np.int64), splits, spec.communities)
    ds.validate()
    return ds
