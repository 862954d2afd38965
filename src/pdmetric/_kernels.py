"""Combinatorial kernels behind the exact distance solvers.

``augmented_matching`` finds a maximum matching of the augmented bipartite
instance of the bottleneck distance at a threshold r: the left side holds
the n points of one diagram followed by m slots of A, the right side the m
points of the other diagram followed by n slots of A.  Point-to-point
edges cost the quotient distance, point-to-slot edges cost the distance
to A (each point owns a dedicated slot), and slot-to-slot edges are free;
r is feasible exactly when the matching is perfect.  The bottleneck solver
takes its witness from it.  With ``decide=True`` it only decides
feasibility, by the must-match rule: r is feasible exactly when the point
graph {Q <= r} has a matching covering the left points with ax > r and
one covering the right points with ay > r (Mendelsohn-Dulmage; Lovasz
and Plummer, Matching Theory, 1.3).  That decision builds no slot; it
matches only the rows of the points that must be matched and returns
only their partners.

Both modes run one Hopcroft-Karp body, ``_max_matching``, on rows of
neighbours held as bit sets in Python ints, so each step of its scans is
one integer operation instead of a few numpy calls.  ``_bitsets`` packs
the rows of {Q <= r}.  A decision passes the rows of its must-match
points (and of the transposed graph).  The augmented matching adds the
slots to the packed point rows: each point row gets its own slot's bit
when ax <= r, and each of the m slot rows is the one mask of the n right
slots plus right point k's bit when ay[k] <= r.  No (n+m) x (n+m)
matrix is built.

``solve_assignment`` finds a min-cost perfect assignment of a square
float matrix with scipy's compiled ``linear_sum_assignment``, the
shortest augmenting path method of Jonker and Volgenant as described by
Crouse (IEEE TAES 52(4), 2016).  The p-Wasserstein solver hands it a
max(n, m) x max(n, m) matrix, not the (n+m) x (n+m) augmented one, and
certifies its answer exactly: see ``pdmetric.matching.wasserstein``.

The compiled routine is loaded from its own extension file,
scipy/optimize/_lsap, by ``importlib.machinery.ExtensionFileLoader``:
importing ``scipy.optimize`` would load the whole of scipy's optimizers
(about 0.4 s and 50 MB) for one function.  A missing file raises
ImportError naming it; there is no fallback kernel.

The matching kernels run in numpy and plain Python, with no compiler or
JIT.  They keep the scan order of the element-by-element loops they
replaced: neighbours are visited in ascending column order and ties go to
the first candidate.  The augmented matching is therefore identical to
that scalar reference (kept in ``tests/reference_kernels.py``) on every
input, which the tests check.  A decision's matchings have no reference;
only its yes/no answer is used.  Among the many optimal assignments of a
tied matrix the compiled kernel returns one of them; only the optimal
cost is promised.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os

import numpy as np

__all__ = ["augmented_matching", "solve_assignment"]


def augmented_matching(Q, ax, ay, r, decide=False):
    """Maximum matching of the augmented instance at threshold r; returns
    the left-to-right match array (int64) with -1 for unmatched left
    nodes.  The threshold is feasible exactly when no -1 remains.

    With ``decide`` it only decides feasibility, by the must-match rule
    (see the module docstring), and builds no slot.  The returned array
    (int64) then holds only the must-match points: the partner column of
    each left point with ax > r, then the partner row of each right point
    with ay > r, and -1 for a point left unmatched.  No -1 remains exactly
    when r is feasible, as for the augmented array.  A must-match point
    with no edge at all answers at once with every entry -1, and the right
    side is not matched when the left one fails, so its entries stay -1."""
    n, m = Q.shape
    below = Q <= r
    if not decide:
        # left u < n: the points at most r away and slot m + u when
        # ax[u] <= r; left n + k: right point k when ay[k] <= r and every
        # right slot
        slots = ((1 << n) - 1) << m
        rows = [b | 1 << (m + u) if near else b
                for u, (b, near) in enumerate(zip(_bitsets(below), (ax <= r).tolist()))]
        rows += [slots | 1 << k if near else slots for k, near in enumerate((ay <= r).tolist())]
        return np.array(_max_matching(rows, n + m), np.int64)
    need_x, need_y = (ax > r).nonzero()[0], (ay > r).nonzero()[0]
    rows_x, rows_y = _bitsets(below[need_x]), _bitsets(below[:, need_y].T)
    partner = np.full(len(rows_x) + len(rows_y), -1, np.int64)
    if 0 not in rows_x and 0 not in rows_y:
        left = _max_matching(rows_x, m)
        partner[: len(left)] = left
        if -1 not in left:
            partner[len(left) :] = _max_matching(rows_y, n)
    return partner


def _bitsets(adj):
    """Each row of a boolean matrix as a bit set in a Python int, bit v
    standing for column v."""
    width = (adj.shape[1] + 7) // 8
    packed = np.packbits(adj, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(packed[i * width : (i + 1) * width], "little") for i in range(len(adj))]


def _max_matching(nbrs, c):
    """Hopcroft-Karp maximum matching of a bipartite graph with rows on the
    left and c columns on the right, ``nbrs[u]`` holding the neighbours of
    row u as a bit set; returns the row-to-column match list with -1 for
    unmatched rows.

    Every set of columns is such a bit set: the neighbours, the free
    columns, and in the DFS the columns whose partner sits on a given
    layer.  The lowest set bit of an intersection is the first column of
    that set in ascending order, which is the neighbour a scan in column
    order picks."""
    k = len(nbrs)
    INF = k + 1
    ml = [-1] * k
    mr = [-1] * c

    # greedy step: each row takes its first free neighbour
    free = (1 << c) - 1
    for u in range(k):
        hit = nbrs[u] & free
        if hit:
            low = hit & -hit
            free ^= low
            v = low.bit_length() - 1
            ml[u] = v
            mr[v] = u

    while True:
        # BFS phase, one whole layer at a time, up to the first layer that
        # reaches a free column; a column reached before has its partner
        # layered already
        layer = [INF] * k
        roots = [u for u in range(k) if ml[u] < 0]
        for u in roots:
            layer[u] = 0
        frontier, seen = roots, 0
        free_layer = INF
        depth = 0
        while frontier:
            reached = 0
            for u in frontier:
                reached |= nbrs[u]
            new = reached & ~seen
            seen |= reached
            if new & free:
                free_layer = depth + 1
            new &= ~free
            frontier = []
            while new:
                low = new & -new
                new ^= low
                w = mr[low.bit_length() - 1]
                layer[w] = depth + 1
                frontier.append(w)
            if free_layer != INF:
                break
            depth += 1
        if free_layer == INF:
            break

        # DFS phase: vertex-disjoint shortest augmenting paths.  A step from
        # u may take neighbour v when v's partner sits on layer[u] + 1, or
        # when v is free and layer[u] + 1 == free_layer.  at[L] holds the
        # columns whose partner sits on layer L, and the free ones in
        # at[free_layer]; rest[u] holds the neighbours of u not tried yet
        # in this phase.
        at = [0] * (free_layer + 2)
        for u in range(k):
            if ml[u] >= 0 and layer[u] <= free_layer:
                at[layer[u]] |= 1 << ml[u]
        at[free_layer] |= free
        rest = nbrs.copy()
        for u0 in roots:
            stack = [u0]
            chosen = []
            while stack:
                u = stack[-1]
                hit = rest[u] & at[layer[u] + 1]
                if hit:
                    low = hit & -hit
                    rest[u] &= -(low << 1)  # drop the columns up to v
                    v = low.bit_length() - 1
                    chosen.append(v)
                    w = mr[v]
                    if w < 0:
                        break
                    stack.append(w)
                    continue
                rest[u] = 0
                if ml[u] >= 0:
                    at[layer[u]] ^= 1 << ml[u]
                layer[u] = INF
                stack.pop()
                if chosen:
                    chosen.pop()
            if stack:
                # augment; each column on the path moves to the layer of its
                # new partner, one below its old partner's (or free_layer)
                free ^= 1 << chosen[-1]
                for L, (u, v) in enumerate(zip(stack, chosen)):
                    bit = 1 << v
                    at[L + 1] ^= bit
                    at[L] |= bit
                    mr[v] = u
                    ml[u] = v
    return ml


def _load_lsap():
    """scipy's compiled ``linear_sum_assignment``, loaded from the extension
    file scipy/optimize/_lsap alone, without importing scipy or
    ``scipy.optimize``.  Raises ImportError naming the file when scipy or
    the file is missing."""
    scipy = importlib.util.find_spec("scipy")
    where = os.path.join(*(scipy.submodule_search_locations if scipy else ["scipy"]), "optimize")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(where, "_lsap" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"pdmetric needs scipy's compiled assignment kernel "
                          f"{os.path.join(where, '_lsap')}{importlib.machinery.EXTENSION_SUFFIXES[0]}"
                          ", which is missing; install scipy>=1.11")
    name = "scipy.optimize._lsap"
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    return module.linear_sum_assignment


_linear_sum_assignment = _load_lsap()


def solve_assignment(cost):
    """Min-cost perfect assignment on a square float64 matrix with finite
    entries; returns, for each column, the row assigned to it (int64)."""
    rows, cols = _linear_sum_assignment(cost)
    row_of_col = np.empty(len(cols), np.int64)
    row_of_col[cols] = rows
    return row_of_col
