"""Combinatorial kernels behind the exact distance solvers.

``augmented_matching`` decides threshold feasibility for the bottleneck
distance via Hopcroft-Karp on the augmented bipartite instance: the left
side holds the n points of one diagram followed by m slots of A, the right
side the m points of the other diagram followed by n slots of A.
Point-to-point edges cost the quotient distance, point-to-slot edges cost
the distance to A (each point owns a dedicated slot), and slot-to-slot
edges are free.  It can start from a given matching (``init``), as the
bottleneck search does from its previous trial's; the answer is the same.

``solve_assignment`` finds an exact min-cost perfect assignment of any
square matrix (Hungarian algorithm with potentials).  The p-Wasserstein
solver hands it a max(n, m) x max(n, m) matrix, not the (n+m) x (n+m)
augmented one: see ``pdmetric.matching.wasserstein``.

There is one kernel path, written with numpy.  Each kernel keeps the scan
order of the element-by-element loops it replaced: neighbours are visited
in ascending column order, ties go to the first candidate, and every
floating-point operation happens in the same order.  The returned arrays
are therefore identical to that scalar reference (kept as
``tests/reference_kernels.py``) on every input, which the tests check;
for ``augmented_matching`` this holds for the cold start, without ``init``.

The Hungarian kernel spends its time in the inner search step, and many
steps of a Wasserstein instance have delta = 0 (the padding rows or
columns repeat, and so do the rows and columns of repeated points).  It
therefore masks the columns already in the search tree with +inf/-inf
sentinels instead of a boolean mask, applies the tree's potential updates
to one contiguous array that is written back once per row, and skips
every update on a zero-delta step; ``solve_assignment`` explains why none
of this changes a comparison, so the output stays identical.
"""

from __future__ import annotations

import numpy as np

__all__ = ["augmented_matching", "solve_assignment"]


def _admissible(Q, ax, ay, r):
    """N x N boolean adjacency of the augmented instance at threshold r.

    Left u < n is a point: its neighbours are the right points j with
    Q[u, j] <= r and its dedicated A slot m + u when ax[u] <= r.  Left
    u = n + k is an A slot: its neighbours are right point k when
    ay[k] <= r and every right A slot.
    """
    n, m = Q.shape
    N = n + m
    adj = np.zeros((N, N), np.bool_)
    adj[:n, :m] = Q <= r
    flat = adj.reshape(-1)
    flat[m : n * N : N + 1] = ax <= r  # entries (u, m + u)
    flat[n * N :: N + 1] = ay <= r  # entries (n + k, k)
    adj[n:, m:] = True
    return adj


def augmented_matching(Q, ax, ay, r, init=None):
    """Maximum matching at threshold r; returns the left-to-right match
    array (int64) with -1 for unmatched left nodes.  The threshold is
    feasible exactly when no -1 remains.

    ``init``, a left-to-right match array of the same instance (a matching
    found at another threshold, say), seeds the search: its pairs that are
    admissible at r are kept, and only the left nodes it leaves free take
    part in the greedy step.  Hopcroft-Karp reaches a maximum matching from
    any start, so the cardinality, and with it the answer, does not depend
    on ``init``; the matching returned may.  Without ``init`` (or with an
    all -1 one) the search starts cold."""
    N = Q.shape[0] + Q.shape[1]
    INF = N + 1
    adj = _admissible(Q, ax, ay, r)
    # adjacency lists, each in ascending column order
    cols = adj.nonzero()[1]
    starts = [0]
    starts += adj.sum(axis=1).cumsum().tolist()
    ml = np.empty(N, np.int64)
    ml.fill(-1)
    mr = ml.copy()
    if init is not None:
        u = np.flatnonzero(init >= 0)
        u = u[adj[u, init[u]]]
        ml[u] = init[u]
        mr[init[u]] = u

    # greedy step: each free left node takes its first free neighbour
    for u in (ml < 0).nonzero()[0].tolist():
        s, e = starts[u], starts[u + 1]
        if s < e:
            nb = cols[s:e]
            free = mr[nb] < 0
            k = free.argmax()
            if free[k]:
                v = nb[k]
                ml[u] = v
                mr[v] = u

    # layer[N] answers for the -1 of a free right node, see the DFS below
    layer = np.empty(N + 1, np.int64)
    while True:
        # BFS phase, one whole layer at a time, up to the first layer that
        # reaches a free right node
        layer.fill(INF)
        frontier = (ml < 0).nonzero()[0]
        layer[frontier] = 0
        free_layer = INF
        depth = 0
        while frontier.size:
            reached = mr[adj[frontier].any(axis=0)]
            w = reached[reached >= 0]
            if w.size < reached.size:  # a free right node was reached
                free_layer = depth + 1
            w = w[layer[w] == INF]
            layer[w] = depth + 1
            if free_layer != INF:
                break
            frontier = w
            depth += 1
        if free_layer == INF:
            break

        # DFS phase: vertex-disjoint shortest augmenting paths.  A step from
        # u may take neighbour v when layer[mr[v]] == layer[u] + 1; with
        # layer[N] = free_layer this also admits a free v (mr[v] == -1)
        # exactly when u sits on the last layer.
        layer[N] = free_layer
        cursor = starts[:N]
        for u0 in (ml < 0).nonzero()[0].tolist():
            stack = [u0]
            chosen = []
            while stack:
                u = stack[-1]
                c, e = cursor[u], starts[u + 1]
                if c < e:
                    ok = layer[mr[cols[c:e]]] == layer[u] + 1
                    k = int(ok.argmax())
                    if ok[k]:
                        cursor[u] = c + k + 1
                        v = int(cols[c + k])
                        chosen.append(v)
                        w = int(mr[v])
                        if w < 0:
                            break
                        stack.append(w)
                        continue
                    cursor[u] = e
                layer[u] = INF
                stack.pop()
                if chosen:
                    chosen.pop()
            if stack:
                for u, v in zip(stack, chosen):
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
    ``-v`` in one (2, k) array in order of joining, each step adds delta to
    one slice of it, and the values are scattered back when the row ends.
    Keeping ``-v`` turns each ``v - delta`` into ``-v + delta``, the same
    rounding up to the sign of a zero.  A step with delta = 0 updates
    nothing: adding or subtracting a zero changes at most the sign of a
    zero result, and ``<`` and ``argmin`` treat -0.0 and +0.0 as equal.
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
    tree = np.empty((2, nn + 1), np.float64)  # u of the rows, -v of the columns
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
            ui = u[i0]
            rows.append(i0)
            cols.append(j0)
            tree[0, k] = ui
            tree[1, k] = -v[j0]
            k += 1
            minv[j0] = np.inf
            vm[j0] = -np.inf
            np.subtract(cost[i0 - 1], ui, cur)
            np.subtract(cur, vm1, cur)
            np.less(cur, minv1, better)
            np.copyto(minv1, cur, where=better)
            np.copyto(way1, j0, where=better)
            j1 = int(minv1.argmin())
            delta = minv1[j1]
            if delta:
                tree[:, :k] += delta
                minv1 -= delta
            j0 = j1 + 1
            if p[j0] == 0:
                break
        u[rows] = tree[0, :k]
        v[cols] = -tree[1, :k]
        while True:
            j1 = int(way[j0])
            p[j0] = p[j1]
            j0 = j1
            if j0 == 0:
                break
    return np.array(p[1:], np.int64) - 1
