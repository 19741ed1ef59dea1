import math

import numpy as np
import pytest

from phenomnn.data import (
    Dataset,
    DatasetError,
    MissingDatasetFile,
    SyntheticSpec,
    UnlabeledTrainNode,
    DatasetShapeMismatch,
    generate_synthetic,
    load_dataset,
    make_splits,
    save_dataset,
)
from helpers import rng_for


def write_toy(tmp_path, features=None, labels=None, splits=None):
    (tmp_path / "hypergraph.txt").write_text("3 2\n0 1\n1 2\n")
    (tmp_path / "features.csv").write_text(features or "1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    (tmp_path / "labels.txt").write_text(labels or "0\n1\n-1\n")
    (tmp_path / "splits.txt").write_text(splits or "train\nval\nnone\n")
    return tmp_path


def test_load_toy_directory(tmp_path):
    ds = load_dataset(write_toy(tmp_path))
    assert ds.hypergraph.n == 3
    assert ds.features.shape == (3, 2)
    assert ds.n_classes == 2
    assert ds.split_indices("train").tolist() == [0]


def test_missing_file_named(tmp_path):
    write_toy(tmp_path)
    (tmp_path / "labels.txt").unlink()
    with pytest.raises(MissingDatasetFile, match="labels.txt"):
        load_dataset(tmp_path)


def test_feature_row_count_mismatch(tmp_path):
    write_toy(tmp_path, features="1.0,2.0\n3.0,4.0\n")
    with pytest.raises(DatasetShapeMismatch, match="rows"):
        load_dataset(tmp_path)


def test_unlabeled_train_node(tmp_path):
    write_toy(tmp_path, labels="-1\n1\n0\n")
    with pytest.raises(UnlabeledTrainNode, match="train node 0"):
        load_dataset(tmp_path)


def test_unknown_split_name(tmp_path):
    write_toy(tmp_path, splits="train\nval\nbogus\n")
    with pytest.raises(DatasetError, match="bogus"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_feature_rejected(tmp_path, bad):
    write_toy(tmp_path, features=f"1.0,2.0\n3.0,{bad}\n5.0,6.0\n")
    with pytest.raises(DatasetError, match=r"features\.csv:2: non-finite feature .* in column 2"):
        load_dataset(tmp_path)


# -- splits ----------------------------------------------------------------------


def test_make_splits_exact_counts():
    s = make_splits(100, (0.5, 0.25, 0.25), seed=0)
    assert (s == "train").sum() == 50
    assert (s == "val").sum() == 25
    assert (s == "test").sum() == 25
    assert (s == "none").sum() == 0


def test_make_splits_deterministic_and_disjoint():
    a = make_splits(57, (0.5, 0.25, 0.25), seed=3)
    b = make_splits(57, (0.5, 0.25, 0.25), seed=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, make_splits(57, (0.5, 0.25, 0.25), seed=4))
    # every node is assigned exactly one value by construction; just check coverage
    assert set(np.unique(a)) <= {"train", "val", "test", "none"}


def test_make_splits_small_n():
    s = make_splits(4, (0.5, 0.25, 0.25), seed=1)
    assert (s == "train").sum() == 2
    assert (s == "val").sum() == 1
    assert (s == "test").sum() == 1


def test_make_splits_invalid_fractions():
    with pytest.raises(ValueError, match="fractions"):
        make_splits(10, (0.8, 0.3, 0.1), seed=0)


# -- synthetic ----------------------------------------------------------------------


def test_synthetic_pure_communities_are_separable():
    spec = SyntheticSpec(noise_std=0.0, p_intra=1.0, seed=0)
    ds = generate_synthetic(spec)
    # zero noise puts every node exactly on its community mean: the
    # nearest-mean rule (a linear classifier) is perfect
    means = np.zeros((2, spec.feature_dim))
    means[0, 0] = 1.0
    means[1, 1] = 1.0
    dist = ((ds.features[:, None, :] - means[None]) ** 2).sum(axis=2)
    assert np.array_equal(np.argmin(dist, axis=1), ds.labels)
    for e in ds.hypergraph.edges:
        assert len(set(ds.labels[e])) == 1


def test_synthetic_intra_fraction_matches_expectation():
    # expected single-community fraction: p + (1-p) * q, where q comes from a
    # hypergeometric count over uniform edges, evaluated per edge size
    spec = SyntheticSpec(
        communities=2, nodes_per_community=50, num_edges=100, edge_size_min=3,
        edge_size_max=3, p_intra=0.5, feature_dim=4, seed=0,
    )
    n = 100
    q = 2 * (math.comb(50, 3) / math.comb(n, 3))
    expect = spec.p_intra + (1 - spec.p_intra) * q
    fractions = []
    for seed in range(30):
        spec.seed = seed
        ds = generate_synthetic(spec)
        single = sum(1 for e in ds.hypergraph.edges if len(set(ds.labels[e])) == 1)
        fractions.append(single / ds.hypergraph.m)
    measured = np.mean(fractions)
    sigma = math.sqrt(expect * (1 - expect) / (spec.num_edges * 30))
    assert abs(measured - expect) <= 3 * sigma


def test_synthetic_deterministic_per_seed():
    a = generate_synthetic(SyntheticSpec(seed=5))
    b = generate_synthetic(SyntheticSpec(seed=5))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.splits, b.splits)
    assert all(np.array_equal(x, y) for x, y in zip(a.hypergraph.edges, b.hypergraph.edges))


def test_roundtrip_save_load_exact(tmp_path):
    ds = generate_synthetic(SyntheticSpec(nodes_per_community=20, num_edges=15, seed=2))
    save_dataset(tmp_path / "ds", ds)
    out = load_dataset(tmp_path / "ds")
    assert np.array_equal(out.features, ds.features)
    assert np.array_equal(out.labels, ds.labels)
    assert np.array_equal(out.splits, ds.splits)
    assert out.hypergraph.m == ds.hypergraph.m
    assert all(np.array_equal(x, y) for x, y in zip(out.hypergraph.edges, ds.hypergraph.edges))


def test_degenerate_spec_rejected():
    with pytest.raises(ValueError):
        SyntheticSpec(nodes_per_community=0)
    with pytest.raises(ValueError):
        SyntheticSpec(p_intra=1.5)
    with pytest.raises(ValueError):
        SyntheticSpec(edge_size_min=0)
