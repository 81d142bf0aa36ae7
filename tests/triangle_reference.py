"""The shared-polytope triangle search as it was before it read the
triangle excess, kept verbatim (with :func:`vertex_bounds` and
:func:`settled_triples`) as the reference that the search with
``excess_settles`` must equal: the same witnesses, the same InputError and
the same LP calls. ``facet_tables`` is kept verbatim as it was before it
could read the order's target table, building its own from
``target_tables``."""

import numpy as np

from evpkit.errors import InputError
from evpkit.geometry import (_over_rows, lp_member, screen_members,
                             segment_band)
from evpkit.instances import _TRIANGLE_QUERIES, facet_verdicts, target_tables


def vertex_bounds(V, C):
    """What :func:`settled_triples` reads of a shared polytope with
    vertices ``V``: the least and the largest entry of ``A V`` over the cone
    rows A, and the largest entry of ``|A||V|``."""
    A = C.halfspaces
    AV = V @ A.T
    return AV.min(), AV.max(), np.max(np.abs(V) @ np.abs(A).T)


def settled_triples(s, s13, bounds, C, tol):
    """``settled``: every query that :func:`triangle_failure` screens for an
    index pair of a triple with the scales ``s = s12 + s23`` and ``s13``
    (arrays that broadcast), over one shared polytope with
    :func:`vertex_bounds` ``bounds``, is covered, read from the scales and
    ``A V`` alone, without assuming H in C or a metric ``S``.

    The screen asks s v in s13 H + C for each vertex v, and its
    single-vertex test at v computes A(s v) - s13 A v = r A v with
    r = s - s13; when s13 <= tol it asks s v in C, so r = s. The test hits
    when min(r min(AV), r max(AV)) is at least -tol, less an allowance for
    the rounding of both products: (2 m + 6) ulps of
    (|s| + |s13|) max |A||v| + tol. So a settled triple is one the screen
    already covers. Triples the search skips (s and s13 at most ``tol``)
    are settled; any other triple with a negative s13 is not.
    """
    lo, hi, size = bounds
    r = np.where(s13 > tol, s - s13, s)
    low = np.minimum(r * lo, r * hi)
    allowance = (2 * C.dim + 6) * np.finfo(float).eps * (
        (np.abs(s) + np.abs(s13)) * size + tol)
    skip = (s <= tol) & (s13 <= tol)
    return skip | ((s13 >= 0) & (low - allowance >= -tol))



@np.errstate(all="ignore")
def facet_tables(S, SV, nv, C, tol):
    """What :func:`facet_verdicts` reads of a per-pair stack, built once
    per search from the scales ``S``, the scaled vertices ``SV = S * V``
    (``(n, n, L, J, m)``) and the counts ``nv``: the conditions of every
    target by :func:`target_tables`, and what the sources need of them.

    The row minima of a scaled set do not depend on the target, and a pair
    condition weighs ``A s v`` as ``base + w_i * slope`` with the
    target-free ``base = A_k s v`` and ``slope = (A_i - A_k) s v``. Returns
    ``(rows, pairs, fit, band)``, every table laid out so that (x3, x2)
    come last, as :func:`facet_verdicts` reads them:

    * ``rows``: the row minima per cone row as ``(k, x1, mu, x2)`` and
      ``(k, nu, x3, x2)``, and less ``tol`` as ``(k, index, x1, x3)``;
    * ``pairs``: ``base`` and ``slope`` per row pair and scaled vertex as
      ``(K, x1, mu, u, x2)`` and ``(K, nu, v, x3, x2)``, and ``w_i`` and
      ``theta`` as ``(K, index, x1, x3)``. A pair with opposite signs in
      no target is left out; where a target's signs do not oppose,
      ``theta`` is ``-inf``;
    * ``fit``: the targets the facets may decide, ``(index, x1, x3)``:
      ``s13`` above ``tol`` and at most two vertices, and none when a
      margin, at most ``7 size + tol`` in magnitude, could overflow;
    * ``band``: :func:`geometry.segment_band`.

    Overflow and invalid values raise no warning here: a NaN margin is
    neither covered nor dead, so its triple goes to the screen.
    """
    A, m = C.halfspaces, C.dim
    n, _, L, J, _ = SV.shape
    ASV = (A @ SV.reshape(-1, m).T).reshape(len(A), n, n, L, J)
    R, (i, j, w, th), fit = target_tables(ASV, S, nv, tol)  # R: (k, x, y, L)
    rows = (np.ascontiguousarray(R.transpose(0, 1, 3, 2)),
            np.ascontiguousarray(R.transpose(0, 3, 2, 1)),
            R.transpose(0, 3, 1, 2) - tol)
    base, slope = ASV[j], ASV[i] - ASV[j]
    pairs = (tuple(np.ascontiguousarray(x.transpose(axes))
                   for axes in ((0, 1, 3, 4, 2), (0, 3, 4, 2, 1))
                   for x in (base, slope)),
             w.transpose(0, 3, 1, 2), th.transpose(0, 3, 1, 2))
    # |A||y| <= 2 size for a vertex sum y, and |A||s v| <= size
    size = np.abs(SV).max() * np.abs(A).sum(axis=1).max()
    fit &= np.isfinite(8.0 * size)
    return rows, pairs, fit.transpose(2, 0, 1), segment_band(size, m, tol)


def triangle_failure(S, V, nv, C, tol):
    """The first failing triple of the arrays ``(S, V, nv)`` as positions
    ``(index, x1, x2, x3)``, in the loop order index, x1, x3, x2, or None
    when the triangle inclusion holds. A triple fails for an index when no
    index pair (mu, nu) puts every query of F_mu(x1, x2) + F_nu(x2, x3) in
    F_index(x1, x3) + C.

    Only the queries depend on the input. With one shared polytope H every
    sum s12 u + s23 v lies in (s12 + s23) H, so the queries are the vertices
    of (s12 + s23) H; otherwise they are the vertex sums s12 u + s23 v of
    the padded stacks. A padding query repeats a real one, so it changes no
    screen result, and it is never sent to the LP. A triple with both
    s12 + s23 and s13 at most ``tol`` is covered; any other negative s13
    raises InputError when the walk reaches it.

    The (index, x1) slabs are taken in blocks of at most
    ``_TRIANGLE_QUERIES`` queries, and at least one slab: runs of indices
    with all their slabs when those fit, else runs of x1 of one index. A
    block's structural pass marks pairs (x3, x2) covered or dead without a
    query, and only where the screen would: :func:`settled_triples` covers
    a pair settled for some (mu, nu) of a shared polytope, and
    :func:`facet_verdicts` decides the pairs of a stack. A block with every
    pair covered is skipped. The walk screens a slab with an open pair
    before its first dead one alone, by one :func:`screen_members` call,
    when it reaches it: a pair is then covered when some (mu, nu) has every
    query screened in, and dead when every (mu, nu) has one screened out.
    Each slab's pairs before its first dead one are walked in loop order;
    an uncovered one tries its (mu, nu) in order on the LP, skipping those
    with a query screened out, until one has every undecided query covered.
    So no LP runs that a loop over the triples would skip, and no slab is
    screened past the one the search stops in.
    """
    n, _, L = S.shape
    shared = V.ndim == 2
    J = V.shape[-2]
    per_slab = n * n * L * L * (J if shared else J * J)
    run = max(1, _TRIANGLE_QUERIES // per_slab)     # slabs per block
    lrun = max(1, run // n)
    blocks = [(slice(l0, l0 + lrun), slice(a0, a0 + run))
              for l0 in range(0, L, lrun) for a0 in range(0, n, min(run, n))]
    origin = np.zeros((1, C.dim))
    St, S23 = S.transpose(2, 0, 1), S.transpose(1, 0, 2)
    if shared:
        bounds = vertex_bounds(V, C)
    else:
        SV, k = S[..., None, None] * V, np.arange(J)   # scaled vertices
        SVt, nvt = SV.transpose(1, 0, 2, 3, 4), nv.transpose(1, 0, 2)
        facets = facet_tables(S, SV, nv, C, tol)

    def first(mask):
        return int(mask.argmax()) if mask.any() else mask.size

    def screen(l, x):
        # the slab (index, x1) = (l, x) alone: its flat masks (covered,
        # dead) over (x3, x2), and covers(c, b, g): (mu, nu) = divmod(g, L)
        # has no query of the pair (x3, x2) = (c, b) screened out, and the
        # LP covers its undecided ones but padding, in order
        s13 = St[l, x]
        s = (S[x][None, :, :, None] + S23[:, :, None, :]).reshape(n, n, -1)
        if shared:
            # queries (x3, x2, (mu, nu), v): (s12 + s23) v
            W, pad = s[..., None, None] * V, False
            T, nT = np.broadcast_to(V, (n, J, C.dim)), np.full(n, nv)
            target = V, nv
        else:
            # queries (x3, x2, (mu, nu), (u, v)): s12 u + s23 v
            W = (SV[x][None, :, :, None, :, None]
                 + SVt[:, :, None, :, None, :]).reshape(n, n, -1, J * J,
                                                         C.dim)
            pad = ((k >= nv[x][..., None])[None, :, :, None, :, None]
                   | (k >= nvt[..., None])[:, :, None, :, None, :]
                   ).reshape(n, n, -1, J * J)
            T, nT = V[x, :, l], nv[x, :, l]
            target = T[:, None, None, None], nT[:, None, None, None]
        dec, ans, cand = screen_members(W, origin, s13[:, None, None, None],
                                        *target, C, tol)
        skip = (s <= tol) & (s13[:, None, None] <= tol)
        free = skip[..., None] | pad            # covered without a test
        dec = dec & ~((s13[:, None, None] < 0) & ~skip)[..., None]
        out = _over_rows(np.logical_or, dec & ~ans & ~free)
        hit = _over_rows(np.logical_or, _over_rows(
            np.logical_and, (dec & ans) | free))
        todo = ~(dec | free)

        def covers(c, b, g):
            if out[c, b, g]:
                return False
            if s13[c] < 0:
                raise InputError("scale must be nonnegative")
            return all(lp_member(W[c, b, g, q], origin, s13[c],
                                 T[c, :nT[c]], C, tol,
                                 np.flatnonzero(cand[c, b, g, q]))
                       for q in np.flatnonzero(todo[c, b, g]))

        return (hit.ravel(), _over_rows(np.logical_and, out).ravel(),
                covers)

    for at in blocks:                       # (index, x1) slices
        lams, a = np.arange(L)[at[0]], np.arange(n)[at[1]]
        s13 = St[at]                        # s13 over (index, x1, x3)
        if shared:
            # s12 + s23 over (x1, x2, x3, (mu, nu))
            s = (S[at[1]][:, :, None, :, None]
                 + S[None, :, :, None, :]).reshape(len(a), n, n, -1)
            covered = _over_rows(np.logical_or, settled_triples(
                s, s13[:, :, None, :, None], bounds, C, tol)).swapaxes(2, 3)
            dead = np.zeros(covered.shape, dtype=bool)
        else:
            covered, dead = facet_verdicts(facets, at)
        if covered.all():
            continue
        covered, dead = (x.reshape(-1, n * n) for x in (covered, dead))
        # only slabs with an uncovered pair (a dead one included) are
        # walked, each up to its first dead pair (n * n when none)
        for p in np.flatnonzero(~covered.all(axis=1)):
            l, x = int(lams[p // len(a)]), int(a[p % len(a)])
            cov, dd = covered[p], dead[p]
            if not cov[:first(dd)].all():
                cov, dd, covers = screen(l, x)
                for q in np.flatnonzero(~cov[:first(dd)]):
                    c, b = divmod(int(q), n)
                    if not any(covers(c, b, g) for g in range(L * L)):
                        return l, x, b, c
            if (stop := first(dd)) < n * n:
                c, b = divmod(stop, n)
                return l, x, b, c
    return None

