"""Frozen references for the kernels in ``pdmetric._kernels``, for the
assignment instance ``pdmetric.matching.wasserstein`` builds and for the
search ``pdmetric.matching.bottleneck`` runs.

``augmented_matching`` and ``solve_assignment`` are the element-by-element
Hopcroft-Karp and Hungarian loops the package shipped before its kernels
were vectorized.  The vectorized matching kernel must return exactly the
same arrays.  The package's assignment kernel is now scipy's compiled
one, which may return another of the optimal assignments of a tied
matrix: it must reach the same optimal cost, and the Wasserstein witness
must cost no more, exactly, than the reference assignment read the same
way.  ``augmented_wasserstein`` is the p-Wasserstein solve on the
(n+m) x (n+m) augmented matrix that the package used before it moved to the
reduced max(n, m) x max(n, m) instance; the reduced solve must report the
same values.  ``cold_bottleneck`` is the bottleneck search the package used
before its decisions were warm-started: a plain binary search in which
every decision is a cold kernel run; the warm search must return the same
value and the same witness.  They are kept only as test oracles.  Do not edit them to
follow changes in the package.
"""

from __future__ import annotations

import numpy as np

from pdmetric import _kernels, matching
from pdmetric.errors import TooLarge


def _neighbor(u, c, Q, ax, ay, r, n, m):
    """c-th candidate neighbor of left node u at threshold r, or -1.

    Left u < n is a point: neighbors are the m right points (admissible
    when Q[u, j] <= r) plus its dedicated A slot m + u (when ax[u] <= r).
    Left u >= n is an A slot: its dedicated right point u - n (when
    ay[u - n] <= r) plus every right A slot, always admissible.
    """
    if u < n:
        if c < m:
            if Q[u, c] <= r:
                return c
            return -1
        if ax[u] <= r:
            return m + u
        return -1
    if c == 0:
        j = u - n
        if ay[j] <= r:
            return j
        return -1
    return m + (c - 1)


def augmented_matching(Q, ax, ay, r):
    """Maximum matching at threshold r; returns left-to-right match array
    with -1 for unmatched left nodes."""
    n = Q.shape[0]
    m = Q.shape[1]
    N = n + m
    INF = N + 1
    ml = np.full(N, -1, np.int64)
    mr = np.full(N, -1, np.int64)
    layer = np.empty(N, np.int64)
    bfs_queue = np.empty(N, np.int64)
    stack = np.empty(N + 1, np.int64)
    chosen = np.empty(N + 1, np.int64)
    cursor = np.empty(N, np.int64)

    # greedy warm start
    for u in range(N):
        deg = (m + 1) if u < n else (1 + n)
        for c in range(deg):
            v = _neighbor(u, c, Q, ax, ay, r, n, m)
            if v >= 0 and mr[v] < 0:
                ml[u] = v
                mr[v] = u
                break

    while True:
        # BFS phase: layer left nodes by alternating distance from free ones
        qh = 0
        qt = 0
        for u in range(N):
            if ml[u] < 0:
                layer[u] = 0
                bfs_queue[qt] = u
                qt += 1
            else:
                layer[u] = INF
        free_layer = INF
        while qh < qt:
            u = bfs_queue[qh]
            qh += 1
            if layer[u] >= free_layer:
                continue
            deg = (m + 1) if u < n else (1 + n)
            for c in range(deg):
                v = _neighbor(u, c, Q, ax, ay, r, n, m)
                if v < 0:
                    continue
                w = mr[v]
                if w < 0:
                    if free_layer == INF:
                        free_layer = layer[u] + 1
                elif layer[w] == INF:
                    layer[w] = layer[u] + 1
                    bfs_queue[qt] = w
                    qt += 1
        if free_layer == INF:
            break

        # DFS phase: vertex-disjoint shortest augmenting paths
        for u in range(N):
            cursor[u] = 0
        for u0 in range(N):
            if ml[u0] >= 0:
                continue
            top = 0
            stack[0] = u0
            success = False
            while top >= 0:
                u = stack[top]
                deg = (m + 1) if u < n else (1 + n)
                moved = False
                while cursor[u] < deg:
                    c = cursor[u]
                    cursor[u] += 1
                    v = _neighbor(u, c, Q, ax, ay, r, n, m)
                    if v < 0:
                        continue
                    w = mr[v]
                    if w < 0:
                        if layer[u] + 1 == free_layer:
                            chosen[top] = v
                            success = True
                            moved = True
                            break
                    elif layer[w] == layer[u] + 1:
                        chosen[top] = v
                        top += 1
                        stack[top] = w
                        moved = True
                        break
                if success:
                    break
                if not moved:
                    layer[u] = INF
                    top -= 1
            if success:
                for k in range(top, -1, -1):
                    mr[chosen[k]] = stack[k]
                    ml[stack[k]] = chosen[k]
    return ml


def solve_assignment(cost):
    """Min-cost perfect assignment on a square matrix; returns, for each
    column, the row assigned to it."""
    nn = cost.shape[0]
    u = np.zeros(nn + 1, np.float64)
    v = np.zeros(nn + 1, np.float64)
    p = np.zeros(nn + 1, np.int64)
    way = np.zeros(nn + 1, np.int64)
    minv = np.empty(nn + 1, np.float64)
    used = np.empty(nn + 1, np.bool_)
    for i in range(1, nn + 1):
        p[0] = i
        j0 = 0
        for j in range(nn + 1):
            minv[j] = np.inf
            used[j] = False
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = np.inf
            j1 = -1
            for j in range(1, nn + 1):
                if not used[j]:
                    cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(nn + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while True:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
            if j0 == 0:
                break
    return p[1:] - 1


def augmented_wasserstein(sigma, tau, p, pair):
    """(value, matching) of the min-cost perfect assignment on the augmented
    matrix: Q^p between points, d(x, A)^p from a point to any A slot and 0
    between slots.  The cost data and the witness assembly are the
    package's; what is frozen is this matrix and how its assignment is read.
    The kernel is the package's compiled one, which reaches the optimal cost
    of ``solve_assignment`` above in a fraction of the time; its float
    optimum is not certified exactly here, as ``wasserstein``'s is."""
    Q, ax, ay = matching._cost_data(sigma, tau, pair)
    n, m = Q.shape
    N = n + m
    if N == 0:
        return 0.0, matching.Matching((), 0.0, p)
    C = np.zeros((N, N), dtype=np.float64)
    with np.errstate(over="ignore"):
        C[:n, :m] = Q**p
        C[:n, m:] = np.broadcast_to((ax**p)[:, None], (n, n))
        C[n:, :m] = np.broadcast_to((ay**p)[None, :], (m, m))
    if not np.isfinite(C).all():
        raise TooLarge(f"cost powers overflow the float range at p = {p}")
    row_of_col = _kernels.solve_assignment(np.ascontiguousarray(C))
    assign_l = np.empty(N, dtype=np.int64)
    assign_l[row_of_col] = np.arange(N)
    result = matching._matching(matching._build_pairs(sigma, tau, assign_l, Q, ax, ay), p)
    return result.value, result


def cold_bottleneck(sigma, tau, pair):
    """(value, matching) of the binary search over the candidates in the
    bracket [LB, UB], every decision a cold kernel run; the witness is the
    last feasible trial's matching when it was made at the final threshold,
    else a cold run there.  The cost data, candidate set and witness
    assembly are the package's; what is frozen is the search."""
    Q, ax, ay = matching._cost_data(sigma, tau, pair)
    cands = matching._candidates(Q, ax, ay)
    cheapest = np.concatenate((np.minimum(ax, Q.min(axis=1, initial=np.inf)),
                               np.minimum(ay, Q.min(axis=0, initial=np.inf))))
    dist_to_A = np.concatenate((ax, ay))
    lo, hi = cands.searchsorted((cheapest.max(initial=0.0), dist_to_A.max(initial=0.0))).tolist()
    ml, ml_at = None, -1  # last feasible matching and its candidate index
    while lo < hi:
        mid = (lo + hi) // 2
        trial = _kernels.augmented_matching(Q, ax, ay, float(cands[mid]))
        if np.any(trial < 0):
            lo = mid + 1
        else:
            hi = mid
            ml, ml_at = trial, mid
    if ml_at != lo:
        ml = _kernels.augmented_matching(Q, ax, ay, float(cands[lo]))
    result = matching._matching(matching._build_pairs(sigma, tau, ml, Q, ax, ay), np.inf)
    return result.value, result
