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
matches only the rows of the points that must be matched.

Both modes run one Hopcroft-Karp body, ``_max_matching``, on rows of
neighbours held as bit sets in Python ints, so each step of its scans is
one integer operation instead of a few numpy calls.  ``_bitsets`` packs
the rows of {Q <= r}.  A decision passes the rows of its must-match
points (and of the transposed graph).  The augmented matching adds the
slots to the packed point rows: each point row gets its own slot's bit
when ax <= r, and each of the m slot rows is the one mask of the n right
slots plus right point k's bit when ay[k] <= r.  No (n+m) x (n+m)
matrix is built.

``solve_assignment`` finds an exact min-cost perfect assignment of any
square matrix (Hungarian algorithm with potentials).  The p-Wasserstein
solver hands it a max(n, m) x max(n, m) matrix, not the (n+m) x (n+m)
augmented one: see ``pdmetric.matching.wasserstein``.

There is one kernel path, in numpy and plain Python: no compiler or JIT.
Each kernel keeps the scan order of the element-by-element loops it
replaced: neighbours are visited in ascending column order, ties go to
the first candidate, and every floating-point operation happens in the
same order.  The augmented matching and the assignment are therefore
identical to that scalar reference (kept as ``tests/reference_kernels.py``)
on every input, which the tests check.  A decision's matchings have no
reference; only its yes/no answer is used.

The Hungarian kernel spends its time in the inner search step, and many
steps of a Wasserstein instance have delta = 0 (the padding rows or
columns repeat, and so do the rows and columns of repeated points).  It
therefore masks the columns already in the search tree with +inf/-inf
sentinels instead of a boolean mask, applies the tree's potential updates
with one ``np.add`` on a contiguous 1-D array that is written back once
per row, hands its ufuncs Python floats rather than numpy scalars, and
skips every update on a zero-delta step; ``solve_assignment`` explains
why none of this changes a comparison, so the output stays identical.
"""

from __future__ import annotations

import numpy as np

__all__ = ["augmented_matching", "solve_assignment"]


def augmented_matching(Q, ax, ay, r, decide=False):
    """Maximum matching of the augmented instance at threshold r; returns
    the left-to-right match array (int64) with -1 for unmatched left
    nodes.  The threshold is feasible exactly when no -1 remains.

    With ``decide`` it only decides feasibility, by the must-match rule
    (see the module docstring), and builds no slot.  The returned array
    then holds each point's partner as a node of the augmented instance:
    entry u < n is left point u's partner v < m in the first matching or
    its A slot m + u, entry n + k is right point k's partner u < n in the
    second matching or its A slot n + k, and -1 marks a point that must be
    matched and is not.  No -1 remains exactly when r is feasible, as for
    the augmented array.  A must-match point with no edge at all answers
    at once, and the right side is not matched when the left one fails;
    their must-match points then stay -1."""
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
    sides = ((_bitsets(below[need_x]), m, need_x), (_bitsets(below[:, need_y].T), n, n + need_y))
    partner = np.arange(n + m)
    partner[:n] += m
    partner[need_x] = -1
    partner[n + need_y] = -1
    if all(0 not in rows for rows, _, _ in sides):
        for rows, c, nodes in sides:
            matched = _max_matching(rows, c)
            partner[nodes] = matched
            if -1 in matched:
                break
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


def solve_assignment(cost):
    """Min-cost perfect assignment on a square matrix; returns, for each
    column, the row assigned to it (int64).  Hungarian algorithm with
    potentials, O(n^3), doing the floating-point operations of the scalar
    reference loop in the same order, so the returned array is identical.

    Each step of a row's search is one vectorized pass over all columns.
    Columns already in the search tree are masked by sentinels instead of
    a boolean mask: their ``minv`` is +inf and their entry of ``vm`` (a
    working copy of ``v``) is -inf, so their reduced cost is +inf and they
    never win the strict ``<`` or the ``argmin``, which keeps the first
    minimum as a strict ``<`` scan in column order would.

    The tree's potentials are deferred.  A row's ``u`` is read once, when
    its column joins the tree and before it receives any delta, and no tree
    column's ``v`` is read during the search; so the tree keeps ``u`` and
    ``-v`` side by side in one 1-D array, the pair of the t-th joined
    column at 2t and 2t + 1.  Each step adds delta to its leading
    contiguous slice with one ``np.add``, and the values are scattered back
    when the row ends.  Keeping ``-v`` turns each ``v - delta`` into
    ``-v + delta``, the same rounding up to the sign of a zero.  A step
    with delta = 0 updates nothing: adding or subtracting a zero changes at
    most the sign of a zero result, and ``<`` and ``argmin`` treat -0.0 and
    +0.0 as equal.  The scalars handed to the ufuncs (the row's ``u`` and
    delta) are Python floats, which numpy reads faster than its own scalars
    and which hold the same float64 values.
    """
    nn = cost.shape[0]
    u = np.zeros(nn + 1, np.float64)
    v = np.zeros(nn + 1, np.float64)
    p = [0] * (nn + 1)
    way = np.zeros(nn + 1, np.int64)
    minv = np.empty(nn + 1, np.float64)
    vm = np.empty(nn + 1, np.float64)
    cur = np.empty(nn, np.float64)
    better = np.empty(nn, np.bool_)
    tree = np.empty(2 * (nn + 1), np.float64)  # u of a row, then -v of its column
    # views over columns 1..nn
    minv1, vm1, way1 = minv[1:], vm[1:], way[1:]
    for i in range(1, nn + 1):
        p[0] = i
        j0 = 0
        minv.fill(np.inf)
        np.copyto(vm, v)
        rows, cols = [], []
        k = 0
        while True:
            # column j0 joins the tree with its row i0
            i0 = p[j0]
            ui = float(u[i0])
            rows.append(i0)
            cols.append(j0)
            tree[2 * k] = ui
            tree[2 * k + 1] = -v[j0]
            k += 1
            minv[j0] = np.inf
            vm[j0] = -np.inf
            np.subtract(cost[i0 - 1], ui, cur)
            np.subtract(cur, vm1, cur)
            np.less(cur, minv1, better)
            np.copyto(minv1, cur, where=better)
            np.copyto(way1, j0, where=better)
            j1 = int(minv1.argmin())
            delta = float(minv1[j1])
            if delta:
                t = tree[: 2 * k]
                np.add(t, delta, out=t)
                minv1 -= delta
            j0 = j1 + 1
            if p[j0] == 0:
                break
        u[rows] = tree[0 : 2 * k : 2]
        v[cols] = -tree[1 : 2 * k : 2]
        while True:
            j1 = int(way[j0])
            p[j0] = p[j1]
            j0 = j1
            if j0 == 0:
                break
    return np.array(p[1:], np.int64) - 1
