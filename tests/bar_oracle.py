"""Bar-cochain oracle for the degree-2 tests.

qcw keeps degree 2 on the |S| (|G|-1) generator values f(g, s) of a
normalized 2-cochain (``qcw.cohom`` module docstring).  The helpers here
work on the normalized bar cochains themselves, |G| x |G| arrays F with
F(1, .) = F(., 1) = 0, or their (|G|-1)^2 values off the identity ("flat"
bar vectors): they restrict and extend between the two coordinate systems,
form cup products and pullbacks, decide cocycles and coboundaries there,
and rebuild the former bar-cochain routes of the support count and of
``induced_h_maps``, so that the tests check the generator-value code
against the textbook definitions.  The file is a helper module, not a test
file: pytest does not collect it.
"""

import numpy as np

from qcw import cohom
from qcw.cohom import GroupCohomology
from qcw.errors import DimensionMismatchError, NotAHomomorphismError
from qcw.zqlinalg import solve_mod

# -- between the generator values and the bar cochains -----------------------------


def restrict(ctx, F):
    """The generator values f(g, s), g != 1, g-major, of |G| x |G|
    2-cochains stacked on leading axes."""
    gens = ctx.t.spanning_tree().gens
    F = np.asarray(F, dtype=np.int64)[..., ctx.elems[:, None], gens]
    return F.reshape(F.shape[:-2] + (len(ctx.elems) * len(gens),)) % ctx.q


def extend(ctx, vectors):
    """The |G| x |G| cochains that take the generator values in the rows of
    ``vectors`` and satisfy the tree equations; on a cocycle F,
    ``extend(ctx, restrict(ctx, F)) == F``."""
    every_row = np.arange(ctx.t.order)
    return np.moveaxis(ctx._along_tree(ctx._on_gens(vectors), every_row)[0], -1, 0)


def flat_of_matrix(ctx, F):
    """The (|G|-1)^2 bar values of F."""
    return F[np.ix_(ctx.elems, ctx.elems)].reshape(ctx.width) % ctx.q


def matrix_of_flat(ctx, v):
    """The |G| x |G| cochain of bar values v."""
    n = ctx.t.order
    F = np.zeros((n, n), dtype=np.int64)
    F[np.ix_(ctx.elems, ctx.elems)] = np.asarray(v, dtype=np.int64).reshape(n - 1, n - 1) % ctx.q
    return F


def positions(ctx):
    """Position of each element in ``ctx.elems`` (-1 at the identity)."""
    pos = np.full(ctx.t.order, -1, dtype=np.int64)
    pos[ctx.elems] = np.arange(len(ctx.elems))
    return pos


def generator_columns(ctx):
    """Bar columns (g, s), g-major, of the listed generators s (deduplicated, identity dropped)."""
    t, w, pos = ctx.t, ctx.t.order - 1, positions(ctx)
    gens = [s for s in dict.fromkeys(t.generators) if s != t.identity]
    return np.array([pos[g] * w + pos[s] for g in ctx.elems for s in gens], dtype=np.int64)


def bar_z2(ctx):
    """``z2_generators`` at bar width: the (|G|-1)^2 bar values of each extended generator, with its order."""
    z2 = ctx.z2_generators()
    return [(flat_of_matrix(ctx, F), o) for F, (_, o) in zip(extend(ctx, [v for v, _ in z2]), z2)]


def extension_matrix(ctx):
    """The (|G|-1)^2 x |S|(|G|-1) matrix of the tree extension: column j holds
    the bar values of the cocycle extended from the j-th unit vector."""
    gens = ctx.t.spanning_tree().gens
    unknowns = len(ctx.elems) * len(gens)
    return np.array([flat_of_matrix(ctx, F) for F in extend(ctx, np.eye(unknowns, dtype=np.int64))]).reshape(
        unknowns, ctx.width
    ).T


# -- cocycles, coboundaries, cup products and pullbacks -----------------------------


def is_cocycle_matrix(ctx, F):
    """The full |G|^3 cocycle identity."""
    m, q, n = ctx.t.mult, ctx.q, ctx.t.order
    lhs = F[:, :, None] + F[m, :]  # F[g, h] + F[gh, k]
    rhs = F[None, :, :] + F[np.arange(n)[:, None, None], m[None, :, :]]
    return bool(((lhs - rhs) % q == 0).all())


def reference_coboundary_rows(ctx):
    """B^2 at bar width: the bar values of d(u_x) for the point mass u_x at each x != 1."""
    t, q, n = ctx.t, ctx.q, ctx.t.order
    rows = np.zeros((n - 1, ctx.width), dtype=np.int64)
    for k, x in enumerate(ctx.elems):
        F = np.zeros((n, n), dtype=np.int64)
        F[x, :] += 1
        F[:, x] += 1
        F[t.mult == x] -= 1
        rows[k] = flat_of_matrix(ctx, F)
    return rows % q


def is_coboundary(ctx, cochain):
    """Is the cochain, off the identity, a coboundary?  A coboundary is a
    cocycle, so it is the extension of its generator values, and those are a
    coboundary's: their gauge lies in the span of the |S|
    ``coboundary_rows``.  Conversely both imply it."""
    F = np.asarray(cochain, dtype=np.int64) % ctx.q
    values = restrict(ctx, F)
    inner = np.ix_(ctx.elems, ctx.elems)
    if (extend(ctx, values[None])[0][inner] != F[inner]).any():
        return False
    return solve_mod(ctx.coboundary_rows().T, ctx.gauge(values[None])[0], ctx.q) is not None


def cup_matrix(ctx, a, b):
    """(a cup b)(g, h) = a(g) b(h); a normalized 2-cocycle for homs a, b."""
    F = (np.asarray(a)[:, None] * np.asarray(b)[None, :]) % ctx.q
    F[ctx.t.identity, :] = 0
    F[:, ctx.t.identity] = 0
    return F


def cup(a, b, G, q):
    """Representative of the cup product of two degree-1 classes."""
    ctx = GroupCohomology(G, q)
    if len(a) != G.order or len(b) != G.order:
        raise DimensionMismatchError("degree-1 classes must be functions on G")
    return cup_matrix(ctx, np.asarray(a, dtype=np.int64) % q, np.asarray(b, dtype=np.int64) % q)


def inflation(pi, cls):
    """``qcw.cohom.inflation``, and on a |G| x |G| cochain of the target its
    pullback F(pi g, pi h)."""
    cls = np.asarray(cls, dtype=np.int64)
    if cls.ndim == 1:
        return cohom.inflation(pi, cls)
    if not pi.is_surjective():
        raise NotAHomomorphismError("inflation requires a surjective quotient map")
    if cls.shape != (pi.target.order, pi.target.order):
        raise DimensionMismatchError("class shape does not match the target group")
    return cls[np.ix_(pi.mapping, pi.mapping)]


# -- the former bar-cochain routes ----------------------------------------------------


def support_size(ctx, space):
    """The nonzero entries of the degree-2 basis classes extended to
    |G| x |G| bar cochains, the former ``basis_support_size``."""
    return int(np.count_nonzero(extend(ctx, space.basis)))


def former_induced_h_maps(pi, q):
    """The former ``induced_h_maps`` matrices (h1_matrix, dec_matrix): one
    solve per target H^1 class, and the target's decomposable basis
    cochains pulled back at |G| x |G|, restricted, gauged and solved for
    their source coordinates."""
    src, tgt = GroupCohomology(pi.source, q), GroupCohomology(pi.target, q)
    src_h1, tgt_h1 = src.h1_space(), tgt.h1_space()
    cols = []
    if src_h1.dimension:
        stack = np.array(src_h1.basis, dtype=np.int64).T
        for b in tgt_h1.basis:
            x = solve_mod(stack, b[pi.mapping], q)
            assert x is not None, "pullback hom not in the source H^1"
            cols.append(x % q)
        m1 = np.stack(cols, axis=1) if cols else np.zeros((src_h1.dimension, 0), dtype=np.int64)
    else:
        m1 = np.zeros((0, tgt_h1.dimension), dtype=np.int64)
    src_dec, tgt_dec = src.dec_module(), tgt.dec_module()
    if tgt_dec.rank:
        basis = extend(tgt, (tgt_dec.transform @ tgt.cup_flats()) % q)
        pulled = restrict(src, basis[:, pi.mapping[:, None], pi.mapping])
        m2 = src_dec.coords_batch(src.gauge(pulled)).T
    else:
        m2 = np.zeros((src_dec.rank, 0), dtype=np.int64)
    return m1, m2
