"""The order stack as it was before its facet pass became one grid over the
solve's arrays, kept verbatim (``order_queries``, ``order_facets``,
``_facet_queries`` and ``relation_matrix``) as the reference that the grid
pass must equal: the same order matrices, the same ``(first, lam, row)``,
the same InputError and no more phase-1 LPs. The one edit: the facet pass
builds its conditions with this ``order_facets`` from the arrays it is
given, as the grid pass reads them in another layout. ``tie_conditions``
is kept verbatim too, as it was before its two-vertex ties took a closed
form of their own, so that the reference runs none of that code."""

import itertools
import math

import numpy as np

from evpkit.geometry import covered_queries, segment_band
from evpkit.instances import (_BLOCK_QUERIES, FiniteInstance, order_arrays,
                              target_tables)


def order_queries(inst, arrays, x2s, x1s, witness=True):
    """The order tests ``labels[x2s[p]] before labels[x1s[p]]`` of several
    label pairs as one stack, ``arrays`` as :func:`order_arrays` gives
    them, or for the graph order a product instance and its
    :func:`evpkit.product.graph_arrays`.

    Each pair is a group of its (family index, value of x1) queries in
    :func:`preceq`'s loop order, over the base f(x2). Every stack takes one
    path: facets (:func:`_facet_queries`) mark queries covered or dead as
    the screen would, and the other queries of each pair before its first
    dead one (with ``witness=False``, of each pair with none) are one
    :func:`covered_queries` stack, screen then LP, as without the facets.

    Returns ``(first, lam, row)``: each pair's first uncovered query (-1
    when x2 precedes x1; with ``witness=False`` some uncovered query), and
    each query's position in ``fam.lambdas()`` and value row of x1.
    """
    S, V, nv, B, nb, _ = arrays
    counts = S.shape[-1] * nb[x1s]
    starts = np.cumsum(counts) - counts
    pair = np.repeat(np.arange(len(x1s)), counts)
    q = np.arange(len(pair))
    i, j = x2s[pair], x1s[pair]
    lam, row = np.divmod(q - starts[pair], nb[j])
    covered, dead = _facet_queries(inst, arrays, (i, j, lam, row))
    # a pair's first dead query is its answer unless covered_queries finds
    # an earlier uncovered one
    cut = np.minimum.reduceat(np.where(dead, q, len(q)), starts)
    first = np.where(cut < len(q), cut, -1)
    if not witness:
        cut[first >= 0] = 0
    keep = np.flatnonzero(~covered & (q < cut[pair]))
    if len(keep):
        own, i, j = V.ndim > 2, i[keep], j[keep]
        at = (i, j, lam[keep])
        sub = covered_queries(
            B[j, row[keep]], B[i], nb[i], S[at], V[at] if own else V,
            nv[at] if own else nv, inst.cone, inst.tol, group=pair[keep],
            witness=witness)
        g = np.flatnonzero(sub >= 0)
        first[g] = keep[sub[g]]
    return first, lam, row


# tie_conditions takes at most this many candidate conditions of a shared
# polytope, and leaves one that needs more to the screen
_TIE_SYSTEMS = 256
# tie_conditions keeps a solved condition whose weights it bounds within
# this l1 distance of the exact ones, and leaves a polytope with a worse one
# to the screen
_TIE_ERROR = 2.0 ** -20


@np.errstate(all="ignore")
def tie_conditions(AH):
    """The facet conditions of the targets ``s conv(H) + C``, ``s > 0``, of
    one polytope H, from ``AH``, the products ``A h_j`` over (cone row,
    vertex): ``(W, theta0, solve)``, or None when H is left to the screen.

    By minimax, ``q`` lies in ``s conv(H) + C`` up to ``tol`` iff the least
    ``g(w) = w . A q - s min_j w . A h_j`` over the simplex of row weights
    ``w`` is at least ``-tol``. ``g`` is convex and piecewise linear, so its
    least value is at a vertex of the cells that the ties ``w . A(h_j -
    h_l) = 0`` cut from the simplex. At such a vertex some rows ``G`` may
    have ``w_i > 0`` and the others have ``w_i = 0``, and ``|G| - 1`` ties
    of a vertex set ``T`` with its first vertex fix ``w`` on ``G`` with
    ``sum w = 1``. So the candidates are the simplex vertices ``e_i``
    (``|G| = 1``) and one square system per pair ``(T, G)`` with ``|T| =
    |G| >= 2``, none of which changes with ``s``. Each row ``w`` of ``W`` is
    one condition ``w . A q >= s theta0 - tol`` with ``theta0 = min_j w . A
    h_j``.

    A tie of two vertices on two rows is taken in closed form, as the row
    pairs of :func:`target_tables` (a pair whose ``A(h_j - h_l)`` has
    opposite signs): for two vertices these are all the conditions. A
    larger system is solved: one whose condition number (of rows scaled to
    unit length) makes its LU error bound reach 1/2 is singular up to the
    rounding of its rows and is skipped, as an exact vertex is met by an
    independent system too; a solution below 0 by more than its bound lies
    outside the simplex and is dropped; the others are clipped to the
    simplex, and ``solve`` is the largest bound kept. H is left to the
    screen when it has more than ``_TIE_SYSTEMS`` candidates or a kept
    bound exceeds ``_TIE_ERROR``. A condition that the ties of several
    vertex pairs give is kept once."""
    k, J = AH.shape
    sizes = range(2, min(J, k) + 1)
    if sum(math.comb(J, r) * math.comb(k, r) for r in sizes) > _TIE_SYSTEMS:
        return None
    eps, solve = np.finfo(float).eps, 0.0
    W = [np.eye(k)]
    if J > 1:
        ties = np.array([*itertools.combinations(range(J), 2)], dtype=int)
        _, (i, l, w, th), _ = target_tables(AH[:, ties], 1.0, 2, 0.0)
        c, p = np.nonzero(th > -np.inf)         # opposite signs
        pairs = np.zeros((len(c), k))
        pairs[np.arange(len(c)), i[c]] = w[c, p]
        pairs[np.arange(len(c)), l[c]] = 1.0 - w[c, p]
        W.append(pairs)
    for r in sizes[1:]:
        T, G = (np.array([*itertools.combinations(range(c), r)], dtype=int)
                for c in (J, k))
        T, G = np.repeat(T, len(G), axis=0), np.tile(G, (len(T), 1))
        # rows A_G (h_j - h_T0) for the vertices j of T after its first,
        # then the weights' sum, each of unit length
        M = AH[G[:, None, :], T[:, 1:, None]] - AH[G, T[:, :1]][:, None, :]
        norm = np.linalg.norm(M, axis=-1, keepdims=True)
        M = np.concatenate([np.divide(M, norm, out=np.zeros_like(M),
                                      where=norm > 0),
                            np.full((len(M), 1, r), r ** -0.5)], axis=1)
        sv = np.linalg.svd(M, compute_uv=False)
        # forward error of a partial-pivoting solve, relative to |w|
        rel = 2.0 ** (r + 3) * r * eps * sv[:, 0] / sv[:, -1]
        live = rel < 0.5
        M, G, rel = M[live], G[live], rel[live]
        rhs = np.zeros((len(M), r, 1))
        rhs[:, -1] = r ** -0.5
        w = np.linalg.solve(M, rhs)[..., 0]
        err = rel / (1.0 - rel) * np.abs(w).sum(axis=1)
        keep = w.min(axis=1) >= -err
        if (err[keep] > _TIE_ERROR).any():
            return None
        solve = max(solve, err[keep].max(initial=0.0))
        w = np.maximum(w[keep], 0.0)
        full = np.zeros((len(w), k))
        np.put_along_axis(full, G[keep], w / w.sum(axis=1, keepdims=True),
                          axis=1)
        W.append(full)
    W = np.concatenate(W)
    if J >= 3:
        # the ties of several vertex pairs can give one condition again
        first = {}
        for at, w in enumerate(W):
            first.setdefault(w.tobytes(), at)
        W = W[list(first.values())]
    return W, (W @ AH).min(axis=1), solve


@np.errstate(all="ignore")
def order_facets(S, V, nv, B, C, tol):
    """The facet conditions of every order query of a solve, built once
    from its arrays ``(S, V, nv)`` and its value stack ``B`` (``(labels,
    rows, m)``) and read by :func:`_facet_queries`; None when a scale is
    negative (the screen raises where a stack meets it), the polytopes'
    dimension is not the cone's, a margin could overflow, or a shared
    polytope has no :func:`tie_conditions`.

    ``size`` bounds ``|A||y|`` over the values and ``|A||s v|`` over every
    scale and vertex. A shared polytope H gives ``(W A y, theta0, band)``:
    the conditions ``w . A q >= s theta0 - tol`` of every target ``s
    conv(H) + C``, with ``W A y`` over (condition, value row, label), a
    target with ``s <= tol`` the cone test (``s = 0``). Per-pair polytopes
    give ``(A y, R, (i, k, w, theta), fit, band)``: :func:`target_tables`
    over the flat (x2, x1, index) target, where a target with ``s <= tol``
    has row minima 0 and no row pair, and is fit. ``band`` is
    :func:`geometry.segment_band` over products of ``k + m`` terms, with
    the tie conditions' ``solve``."""
    A, m = C.halfspaces, C.dim
    k, n = len(A), len(B)
    size = max(np.abs(B).max(), np.abs(S).max(initial=0.0)
               * np.abs(V).max(initial=0.0)) * np.abs(A).sum(axis=1).max()
    if V.shape[-1] != m or not np.isfinite(8.0 * size) or (S < 0).any():
        return None
    AB = np.ascontiguousarray((B @ A.T).T)      # (k, value row, label)
    if V.ndim == 2:
        conditions = tie_conditions(A @ V.T)
        if conditions is None:
            return None
        W, theta0, solve = conditions
        WAB = (W @ AB.reshape(k, -1)).reshape(len(W), -1, n)
        return WAB, theta0, segment_band(size, k + m, tol, solve)
    AV = (A @ V.reshape(-1, m).T).reshape(k, *V.shape[:-1])
    R, (ci, ck, w, th), fit = target_tables(
        np.where(S > tol, S, 0.0)[..., None] * AV, S, nv, tol)
    T = S.size                                  # the flat targets
    return (AB, R.reshape(k, T), (ci, ck, w.reshape(-1, T), th.reshape(-1, T)),
            (fit | (S <= tol)).ravel(), segment_band(size, k + m, tol))


@np.errstate(all="ignore")
def _facet_queries(inst, arrays, query):
    """The facet pass of :func:`order_queries`: masks ``(covered, dead)``
    over its queries ``(i, j, lam, row) = query``, value row ``row`` of
    label j in f(i) + F_lam(i, j) + C, gathered from the
    :func:`order_facets` of the solve in blocks of at most
    ``_BLOCK_QUERIES`` queries. A query is covered when some base row's
    least margin ``w . (A y - A b) - theta`` is at least the inner edge of
    :func:`geometry.segment_band`, and dead when every base row's is below
    its outer edge. Per-pair targets of three or more vertices, and every
    query of a solve without facets, are left to the screen."""
    S, V, nv, B, _, _ = arrays
    facets = order_facets(S, V, nv, B, inst.cone, inst.tol)
    i, j, lam, row = query
    covered, dead = np.zeros((2, len(i)), dtype=bool)
    if facets is None:
        return covered, dead
    # the products W A y or A y over (condition, value row, label)
    P, (inside, outside) = facets[0], facets[-1]
    n, tol = len(S), inst.tol
    t = (i * n + j) * S.shape[-1] + lam         # the flat target
    for at in range(0, len(i), _BLOCK_QUERIES):
        q = slice(at, at + _BLOCK_QUERIES)
        tq = t[q]
        # the products of the values y over (condition, query), and of the
        # base rows b over (condition, base row, query)
        Ay = np.take(P.reshape(len(P), -1), row[q] * n + j[q], axis=1)
        Ab = np.take(P, i[q], axis=2)
        if V.ndim == 2:
            # w . A y - (s theta0 - tol) - w . A b, least over the conditions
            _, theta0, _ = facets
            s = S[i[q], j[q], lam[q]]
            Ay -= np.multiply.outer(theta0, np.where(s > tol, s, 0.0)) - tol
            low = np.subtract(Ay[:, None], Ab, out=Ab).min(axis=0)
            fit = True
        else:
            _, R, (ci, ck, w, th), fit, _ = facets
            # A(y - b), then the row conditions and the row pairs of each
            # query's target
            D = np.subtract(Ay[:, None], Ab, out=Ab)
            low = (D - (np.take(R, tq, axis=1) - tol)[:, None]).min(axis=0)
            if len(w):
                Dk = D[ck]
                low = np.minimum(low, (
                    Dk + np.take(w, tq, axis=1)[:, None] * (D[ci] - Dk)
                    - np.take(th, tq, axis=1)[:, None]).min(axis=0))
            fit = fit[tq]
        # the best base row of each query
        best = low.max(axis=0)
        covered[q] = fit & (best >= inside)
        dead[q] = fit & (best < -outside)
    return covered, dead


def relation_matrix(inst: FiniteInstance, fam, arrays=None):
    """rel[i, j] = True iff labels[i] precedes labels[j] in the order.

    Decided for blocks of rows (x2) at a time, each one
    :func:`order_queries` stack with ``witness=False``: facets, then the
    screen, then the LP. A block holds as many whole rows as fit in
    ``_BLOCK_QUERIES`` queries, and at least one.
    """
    n = len(inst.labels)
    if arrays is None:
        arrays = order_arrays(inst, fam)
    S, _, _, _, nb, _ = arrays
    step = n * max(1, _BLOCK_QUERIES // (S.shape[-1] * int(nb.sum())))
    rel = np.zeros(n * n, dtype=bool)
    for start in range(0, n * n, step):
        x2s, x1s = np.divmod(np.arange(start, min(start + step, n * n)), n)
        first, _, _ = order_queries(inst, arrays, x2s, x1s, witness=False)
        rel[start:start + step] = first < 0
    return rel.reshape(n, n)
