import math
import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phenomnn.hypergraph import Hypergraph, HypergraphError
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
from helpers import hyperedges, rng_for


def write_toy(tmp_path, features=None, labels=None, splits=None):
    (tmp_path / "hypergraph.txt").write_text("3 2\n0 1\n1 2\n", encoding="utf-8")
    (tmp_path / "features.csv").write_text(features or "1.0,2.0\n3.0,4.0\n5.0,6.0\n", encoding="utf-8")
    (tmp_path / "labels.txt").write_text(labels or "0\n1\n-1\n", encoding="utf-8")
    (tmp_path / "splits.txt").write_text(splits or "train\nval\nnone\n", encoding="utf-8")
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


@pytest.mark.parametrize("labels, splits, message", [
    ("0\n1\n-1\n", "train\nval\ntest\n", "test node 2 is unlabeled"),
    ("0\n-1\n1\n", "train\nval\nnone\n", "val node 1 is unlabeled"),
    ("0\n1\n-2\n", "train\nval\nnone\n", "node 2 has label -2"),
])
def test_unusable_label_is_named(tmp_path, labels, splits, message):
    # accuracy would score an unlabeled evaluation node as a wrong class, and
    # -2 would pass as unlabeled
    write_toy(tmp_path, labels=labels, splits=splits)
    with pytest.raises(DatasetError, match=message):
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


@pytest.mark.parametrize(
    "features, error, message",
    [
        ("1.0,2.0\n3.0,x\n5.0,6.0\n", DatasetError, r"features\.csv:2: malformed feature row"),
        ("1.0,2.0\n\n3.0,4.0,5.0\n5.0,6.0\n", DatasetShapeMismatch, r"features\.csv:3: expected 2 columns, got 3"),
        ("1.0,2.0\n\n \n3.0,4.0\n5.0,nan\n", DatasetError, r"features\.csv:5: non-finite feature nan in column 2"),
        # np.loadtxt strips \x1c around a number; float does not
        ("1.0\x1c,2.0\n3.0,4.0\n5.0,6.0\n", DatasetError, r"features\.csv:1: malformed feature row"),
    ],
)
def test_feature_fault_names_its_line(tmp_path, features, error, message):
    write_toy(tmp_path, features=features)
    with pytest.raises(error, match=message):
        load_dataset(tmp_path)


@pytest.mark.parametrize("features", ["", "\n\n"])
def test_empty_features_are_a_shape_mismatch(tmp_path, features):
    write_toy(tmp_path)
    (tmp_path / "features.csv").write_text(features)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DatasetShapeMismatch, match="features have 0 rows but hypergraph has 3 nodes"):
            load_dataset(tmp_path)


@pytest.mark.parametrize(
    "labels, message",
    [
        ("0\n\n1.5\n-1\n", r"labels\.txt:3: malformed label '1\.5'"),
        ("0 0\n1 1\n-1 -1\n", r"labels\.txt:1: malformed label '0 0'"),
        # np.loadtxt reads this letter as a digit of an integer
        ("0\n1\u01fe\n-1\n", r"labels\.txt:2: malformed label '1\u01fe'"),
        ("0\n\n99999999999999999999\n-1\n", r"labels\.txt:3: label '99999999999999999999' does not fit in 64 bits"),
        ("0\n-9223372036854775809\n-1\n", r"labels\.txt:2: label '-9223372036854775809' does not fit in 64 bits"),
    ],
)
def test_bad_label_names_its_line_and_token(tmp_path, labels, message):
    write_toy(tmp_path, labels=labels)
    with pytest.raises(DatasetError, match=message):
        load_dataset(tmp_path)


def test_node_count_beyond_64_bits_names_the_hypergraph_file(tmp_path):
    write_toy(tmp_path)
    (tmp_path / "hypergraph.txt").write_text("99999999999999999999 2\n0 1\n1 2\n", encoding="utf-8")
    with pytest.raises(HypergraphError, match=r"hypergraph\.txt:1: node count 99999999999999999999 does not fit"):
        load_dataset(tmp_path)


@pytest.mark.parametrize(
    "splits, message",
    [
        ("train\n\nval\nbogus\n", r"splits\.txt:4: unknown split 'bogus'"),
        ("train val\nval none\nnone test\n", r"splits\.txt:1: unknown split 'train val'"),
    ],
)
def test_unknown_split_names_its_line(tmp_path, splits, message):
    write_toy(tmp_path, splits=splits)
    with pytest.raises(DatasetError, match=message):
        load_dataset(tmp_path)


@pytest.mark.parametrize(
    "name, text",
    [
        ("features.csv", "1_0,2.0\n3.0,4.0\n5.0,6.0\n"),
        ("features.csv", "10,2\x0c\n3,4\n5.0,6.0\n"),
        ("features.csv", "10,2\n \n3,4\n5.0,6.0\n"),
        ("labels.txt", "0\n0_1\n-1\n"),
        ("labels.txt", "0\n\x0c1\n \n-1\n"),
        ("splits.txt", "train\x0c\nval\n\x0c\nnone\n"),
    ],
)
def test_files_numpy_turns_away_load_as_the_line_reader_reads_them(tmp_path, name, text):
    # float("1_0") and int("0_1") accept what np.loadtxt does not, and str.strip
    # takes a form feed for whitespace; these files load as the canonical toy
    for side in ("plain", "odd"):
        (tmp_path / side).mkdir()
        write_toy(tmp_path / side, features="10.0,2.0\n3.0,4.0\n5.0,6.0\n")
    want = load_dataset(tmp_path / "plain")
    (tmp_path / "odd" / name).write_text(text)
    got = load_dataset(tmp_path / "odd")
    for field in ("features", "labels", "splits"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def test_numpy_read_equals_the_line_read(tmp_path):
    # a line of one form feed is blank to the line reader and sends each file
    # to it; the C reader must give the same arrays bit for bit
    ds = generate_synthetic(SyntheticSpec(nodes_per_community=30, edges=20, seed=4))
    save_dataset(tmp_path / "fast", ds)
    save_dataset(tmp_path / "slow", ds)
    for name in ("features.csv", "labels.txt", "splits.txt"):
        with open(tmp_path / "slow" / name, "a", encoding="utf-8") as f:
            f.write("\x0c\n")
    fast, slow = load_dataset(tmp_path / "fast"), load_dataset(tmp_path / "slow")
    for field in ("features", "labels", "splits"):
        a, b = getattr(fast, field), getattr(slow, field)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


SPECIAL_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7e308, -1.7e308, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3,
]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda d: st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL_FLOATS),
                     min_size=d, max_size=d),
            min_size=3, max_size=3,
        )
    )
)
def test_features_round_trip_bit_for_bit(rows):
    features = np.array(rows, dtype=np.float64)
    hg = Hypergraph.from_edges(3, [[0, 1], [1, 2]])
    ds = Dataset(hg, features, np.array([0, 1, -1]), np.array(["train", "val", "none"]), 2)
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(tmp, ds)
        out = load_dataset(tmp)
    assert out.features.shape == features.shape
    assert out.features.tobytes() == features.tobytes()


def test_load_peaks_under_twice_the_arrays_it_returns(tmp_path):
    n, d = 20_000, 32
    rng = rng_for(29)
    hg = Hypergraph.from_edges(n, [[i, i + 1] for i in range(0, n, 2)])
    ds = Dataset(hg, rng.standard_normal((n, d)), rng.integers(0, 3, n), make_splits(n, seed=29), 3)
    save_dataset(tmp_path, ds)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = load_dataset(tmp_path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    b = out.hypergraph.incidence
    returned = sum(a.nbytes for a in (out.features, out.labels, out.splits, b.data, b.indices, b.indptr))
    assert peak <= 2 * returned


# -- splits ----------------------------------------------------------------------


def test_make_splits_exact_counts():
    s = make_splits(100, seed=0)
    assert (s == "train").sum() == 50
    assert (s == "val").sum() == 25
    assert (s == "test").sum() == 25
    assert (s == "none").sum() == 0


def test_make_splits_deterministic_and_disjoint():
    a = make_splits(57, seed=3)
    b = make_splits(57, seed=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, make_splits(57, seed=4))
    # every node is assigned exactly one value by construction; just check coverage
    assert set(np.unique(a)) <= {"train", "val", "test", "none"}


@pytest.mark.parametrize("make", [lambda: make_splits(10, seed=-1), lambda: SyntheticSpec(seed=-1)],
                         ids=["make_splits", "SyntheticSpec"])
def test_a_negative_seed_is_rejected_by_name(make):
    # numpy's own error, "expected non-negative integer", names no setting
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == "seed must be >= 0, got -1"


def test_make_splits_small_n():
    s = make_splits(4, seed=1)
    assert (s == "train").sum() == 2
    assert (s == "val").sum() == 1
    assert (s == "test").sum() == 1


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
    for e in hyperedges(ds.hypergraph):
        assert len(set(ds.labels[e])) == 1


def test_synthetic_intra_fraction_matches_expectation():
    # expected single-community fraction: p + (1-p) * q, where q comes from a
    # hypergeometric count over uniform edges, evaluated per edge size
    spec = SyntheticSpec(
        communities=2, nodes_per_community=50, edges=100, edge_size_min=3,
        edge_size_max=3, p_intra=0.5, feature_dim=4, seed=0,
    )
    n = 100
    q = 2 * (math.comb(50, 3) / math.comb(n, 3))
    expect = spec.p_intra + (1 - spec.p_intra) * q
    fractions = []
    for seed in range(30):
        spec.seed = seed
        ds = generate_synthetic(spec)
        single = sum(1 for e in hyperedges(ds.hypergraph) if len(set(ds.labels[e])) == 1)
        fractions.append(single / ds.hypergraph.m)
    measured = np.mean(fractions)
    sigma = math.sqrt(expect * (1 - expect) / (spec.edges * 30))
    assert abs(measured - expect) <= 3 * sigma


def test_synthetic_deterministic_per_seed():
    a = generate_synthetic(SyntheticSpec(seed=5))
    b = generate_synthetic(SyntheticSpec(seed=5))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.splits, b.splits)
    assert all(np.array_equal(x, y) for x, y in zip(hyperedges(a.hypergraph), hyperedges(b.hypergraph)))


def test_roundtrip_save_load_exact(tmp_path):
    ds = generate_synthetic(SyntheticSpec(nodes_per_community=20, edges=15, seed=2))
    save_dataset(tmp_path / "ds", ds)
    out = load_dataset(tmp_path / "ds")
    assert np.array_equal(out.features, ds.features)
    assert np.array_equal(out.labels, ds.labels)
    assert np.array_equal(out.splits, ds.splits)
    assert out.hypergraph.m == ds.hypergraph.m
    assert all(np.array_equal(x, y) for x, y in zip(hyperedges(out.hypergraph), hyperedges(ds.hypergraph)))


def test_degenerate_spec_rejected():
    with pytest.raises(ValueError):
        SyntheticSpec(nodes_per_community=0)
    with pytest.raises(ValueError):
        SyntheticSpec(p_intra=1.5)
    with pytest.raises(ValueError):
        SyntheticSpec(edge_size_min=0)
