"""Hypergraph structure and the clique/star expansion operators.

The incidence matrix ``B`` is binary, with ``B[i, k] = 1`` when node ``i``
belongs to hyperedge ``k``.  A scipy CSR matrix, it is the only copy of the
structure, and every constructor builds it in ``Hypergraph._from_columns``;
``parse_hypergraph`` is the one reader of the text grammar.
The clique expansion is the raw algebraic form ``A_C = B B^T``
(multiplicities and diagonal retained), and the normalized star contraction
is ``A_S_bar = B D_H^{-1} B^T``.  Both factor through ``B``, so the operators
the layers, energies and step bounds use keep only ``B``'s rows of the nodes
in some hyperedge and apply the expansions as ``B W B^T``; the package never
forms an n x n matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "HypergraphError",
    "Hypergraph",
    "parse_hypergraph",
    "load_hypergraph",
    "ExpansionOperators",
    "build_expansion_operators",
]


class HypergraphError(ValueError):
    """Raised for malformed hypergraph files or invalid structure."""


@dataclass(eq=False)
class Hypergraph:
    """Validated hypergraph with cached degree views.

    ``incidence`` is the n x m CSR matrix ``B`` in canonical form (sorted,
    duplicate-free column indices, all values 1) and the only copy of the
    structure: the sorted, duplicate-free node ids of hyperedge ``k`` are
    column ``k`` of ``incidence.tocsc()``.  ``edge_sizes[k]`` equals the
    column sum of column ``k`` and ``node_degrees[i]`` the row sum of row ``i``.
    """

    n: int
    m: int
    incidence: sp.csr_matrix
    edge_sizes: np.ndarray
    node_degrees: np.ndarray

    @classmethod
    def from_edges(cls, n: int, edges) -> "Hypergraph":
        if n < 1:
            raise HypergraphError(f"node count must be positive, got {n}")
        columns = []
        try:
            for e in edges:
                vals = list(e)  # an edge may be a one-shot iterator
                try:
                    col = np.fromiter(map(int, vals), dtype=np.int64, count=len(vals))
                except (TypeError, ValueError, OverflowError) as err:
                    raise HypergraphError(f"hyperedge {len(columns)}: {err}") from None
                if col.tolist() != vals:  # int() truncated a fraction or parsed a string
                    bad = next(v for v, i in zip(vals, col.tolist()) if v != i)
                    bad = bad.item() if isinstance(bad, np.generic) else bad
                    raise HypergraphError(f"hyperedge {len(columns)}: node id {bad!r} is not an integer")
                columns.append(col)
        except (TypeError, ValueError):
            _check_edges(n, *_concat(columns))  # a fault in an earlier edge is named first
            raise
        return cls._from_columns(n, *_concat(columns))

    @classmethod
    def _from_columns(cls, n: int, ids: np.ndarray, ptr: np.ndarray) -> "Hypergraph":
        """Hyperedge ``k`` holds ``ids[ptr[k]:ptr[k + 1]]``, in any order and with repeats."""
        _check_edges(n, ids, ptr)
        m = ptr.size - 1
        # column k of B holds edge k's ids; summing duplicates sorts each column
        b = sp.csc_matrix((np.ones(ids.size), ids, ptr), shape=(n, m))
        b.sum_duplicates()
        b.data.fill(1.0)
        sizes = np.diff(b.indptr).astype(np.float64)
        b = b.tocsr()
        return cls(
            n=n,
            m=m,
            incidence=b,
            edge_sizes=sizes,
            node_degrees=np.diff(b.indptr).astype(np.float64),
        )


def _concat(columns) -> tuple[np.ndarray, np.ndarray]:
    ids = np.concatenate(columns) if columns else np.zeros(0, dtype=np.int64)
    return ids, np.concatenate(([0], np.cumsum([c.size for c in columns], dtype=np.int64)))


def _check_edges(n: int, ids: np.ndarray, ptr: np.ndarray) -> None:
    """Raise for the first hyperedge that is empty or holds an id outside ``[0, n)``."""
    m = ptr.size - 1
    empty = np.flatnonzero(ptr[1:] == ptr[:-1])
    outside = np.flatnonzero((ids < 0) | (ids >= n))
    k_empty = int(empty[0]) if empty.size else m
    k_out = int(np.searchsorted(ptr, outside[0], side="right")) - 1 if outside.size else m
    if k_empty < k_out:
        raise HypergraphError(f"hyperedge {k_empty} is empty")
    if k_out < m:
        e = ids[ptr[k_out] : ptr[k_out + 1]]
        bad = e.min() if e.min() < 0 else e.max()
        raise HypergraphError(f"hyperedge {k_out}: node id {bad} out of range (n={n})")


def parse_hypergraph(text: str, source: str = "<string>") -> Hypergraph:
    """Parse the hypergraph text grammar; a fault raises ``HypergraphError`` naming its line.

    ``#`` lines aside, the first line is the header ``n m`` and each of the next ``m``
    lists one hyperedge's ids, read by ``int``, in ``[0, n)``.  A blank line before the
    last hyperedge is an empty one; blank lines after it are skipped.  The file is read
    one line at a time, so the first line at fault is named, and within a line a token
    ``int`` rejects comes before an id out of range.
    """
    header = None  # the header's line number, once read
    ids, ptr = [], [0]  # hyperedge k holds ids[ptr[k]:ptr[k + 1]]
    n = m = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 2:
                raise HypergraphError(f"{source}:{lineno}: expected header 'n m', got {raw!r}")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise HypergraphError(f"{source}:{lineno}: expected integer header 'n m', got {raw!r}") from None
            if n < 1 or m < 0:
                raise HypergraphError(f"{source}:{lineno}: invalid sizes n={n} m={m}")
            if n > np.iinfo(np.int64).max:
                raise HypergraphError(f"{source}:{lineno}: node count {n} does not fit in 64 bits")
            header = lineno
            continue
        if len(ptr) > m:
            if not line:
                continue
            raise HypergraphError(f"{source}:{lineno}: unexpected extra line after {m} hyperedges")
        if not line:
            raise HypergraphError(f"{source}:{lineno}: hyperedge {len(ptr) - 1} is empty")
        try:
            edge = [int(p) for p in line.split()]
        except ValueError:
            raise HypergraphError(f"{source}:{lineno}: malformed hyperedge line {raw!r}") from None
        for i in edge:
            if i < 0 or i >= n:
                raise HypergraphError(f"{source}:{lineno}: node id {i} out of range (n={n})")
        ids += edge
        ptr.append(len(ids))
    if header is None:
        raise HypergraphError(f"{source}: missing header line 'n m'")
    if len(ptr) - 1 != m:
        raise HypergraphError(f"{source}: expected {m} hyperedges, found {len(ptr) - 1}")
    try:
        return Hypergraph._from_columns(n, np.array(ids, dtype=np.int64), np.array(ptr, dtype=np.int64))
    except (ValueError, MemoryError) as err:  # numpy's dimension limit, or an allocation refused
        reason = str(err) or type(err).__name__
    raise HypergraphError(f"{source}:{header}: cannot build the incidence matrix for n={n} m={m}: {reason}")


def load_hypergraph(path) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as f:
        return parse_hypergraph(f.read(), source=str(path))


@dataclass(eq=False)
class ExpansionOperators:
    """The expansions of one hypergraph for one ``(lambda0, lambda1)`` pair, in factored form,
    on the ``k`` nodes in some hyperedge.

    A node in no hyperedge has a zero row in ``A_C`` and ``A_S_bar``, so of
    the hypergraph's ``n`` nodes the operators cover ``linked``, the ``k`` in
    some hyperedge, by degree class, and ``isolated`` lists the others in
    node order.  ``b`` is the k x m CSR incidence matrix ``B`` on the linked
    rows, its columns by edge size class, the only sparse array kept (``b.T``
    is its CSC view, not a copy), so ``A_C Y = B (B^T Y)`` and ``A_S_bar Y =
    B D_H^{-1} (B^T Y)`` never form an n x n matrix.  On the linked rows ``d_c = B m`` (row sums
    of ``A_C``, with ``m`` the edge sizes), ``d_s_bar`` the node degrees (row
    sums of ``A_S_bar``) and ``d_tilde = lambda0 d_c + lambda1 d_s_bar + 1``
    the update preconditioner; ``d_h`` holds the edge sizes by size class.
    The weights are nonnegative and finite.

    A degree class is the linked nodes of equal ``(d_c, d_s_bar)``, both
    exact integer sums as ``B`` is binary, and a size class the edges of
    equal size.  The classes come largest first, ties by key, each in node
    or edge order; ``classes`` and ``edge_classes`` hold their offsets.  A
    layer's ``d x d`` terms share their weights within a class (see
    ``energy.Propagation``).  A hypergraph with no hyperedge gives ``k = 0``.
    ``kernels`` holds the layers' kernel constants that ``Propagation``
    builds from these operators, once per variant, ``alpha`` and ``d``.
    """

    n: int
    linked: np.ndarray
    isolated: np.ndarray
    b: sp.csr_matrix
    d_c: np.ndarray
    d_s_bar: np.ndarray
    d_h: np.ndarray
    lambda0: float
    lambda1: float
    d_tilde: np.ndarray
    classes: np.ndarray
    edge_classes: np.ndarray
    kernels: dict = field(default_factory=dict, init=False, repr=False)


def _class_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of ``keys`` by class, the entries of equal key, and the class offsets in
    that order: larger classes first, ties by key, each class in entry order."""
    _, cls, sizes = np.unique(keys, return_inverse=True, return_counts=True)
    return np.lexsort((cls, -sizes[cls])), np.concatenate(([0], np.cumsum(np.sort(sizes)[::-1])))


def build_expansion_operators(hg: Hypergraph, lambda0: float, lambda1: float) -> ExpansionOperators:
    if not (0.0 <= lambda0 < np.inf and 0.0 <= lambda1 < np.inf):
        raise ValueError(f"expansion weights must be nonnegative and finite, got {lambda0}, {lambda1}")
    d_c = hg.incidence @ hg.edge_sizes
    isolated = d_c == 0
    linked = np.flatnonzero(~isolated)
    # (d_c, d_s_bar) as one integer that orders as the pair does, d_c * (max d_s_bar + 1) + d_s_bar:
    # both are at most nnz(B), so it is exact in int64 below 3e9 nonzeros
    d_s = hg.node_degrees[linked].astype(np.int64)
    order, classes = _class_order(d_c[linked].astype(np.int64) * (d_s.max(initial=0) + 1) + d_s)
    linked = linked[order]
    edges, edge_classes = _class_order(hg.edge_sizes)
    b = hg.incidence[linked]
    b = sp.csr_matrix((b.data, np.argsort(edges)[b.indices], b.indptr), shape=b.shape)  # column k: edge edges[k]
    b.sort_indices()
    d_c, d_s_bar = d_c[linked], hg.node_degrees[linked]
    return ExpansionOperators(
        n=hg.n,
        linked=linked,
        isolated=np.flatnonzero(isolated),
        b=b,
        d_c=d_c,
        d_s_bar=d_s_bar,
        d_h=hg.edge_sizes[edges],
        lambda0=float(lambda0),
        lambda1=float(lambda1),
        d_tilde=lambda0 * d_c + lambda1 * d_s_bar + 1.0,
        classes=classes,
        edge_classes=edge_classes,
    )
