"""The one far-field engine: a uniform binary tree over ascending sources
with a 1D Chebyshev fast multipole expansion (Greengard-Rokhlin; the
black-box FMM of Fong and Darve, 2009) of kernels Re[K(d) e^(i omega d)],
K smooth away from d = 0.

It takes two kinds of sum.  Over the pairs of one set (the pair engine of
:mod:`szeta.paircorr`): pairs in the same or adjacent leaves go to the
caller's near-field kernel (:meth:`_Tree.near`, :meth:`_Tree.near_columns`),
all others to the far field as a bilinear form of the multipole
expansions (:meth:`_Tree.far`).  At targets apart from the sources (the
explicit formula's zero sum of :mod:`szeta.s_of_t`): the local expansion
of every leaf is built once from the sources (:meth:`_Tree.locals`), and
a target then costs L2P (:meth:`_Tree.far_at`) plus the sources of its
leaf and the two next to it (:meth:`_Tree.near_at`).

The pair engine's leaves are as narrow as its far kernel allows.  A khat
or k'' term's far kernel, the (P, Q) split of :mod:`szeta.kernels`, holds
for d L >= 50 only, so its leaves are at least that floor wide, and no
wider than needed: a near pair costs each such transform a 25-term P/Q
Horner sum and a cos and sin, or a table read (about 110-170 ns), where a
far box costs a few 20 x 20 products, so the near field is kept to the
leaves the floor forces.  A cos-only sum's near pair is a cos and a
weight; its leaves hold about _LEAF ordinates.

Temporaries per source or target are bounded by a block: near-field
kernel calls take pieces of about _NEAR differences, P2M weights are
built where they are used, _BATCH sources at a time, and L2P sums each
leaf's Chebyshev series by Clenshaw's recurrence, one vector per degree.

The pair engine's column sums (:meth:`_Tree.near_columns`,
:meth:`_Tree.far`) hold one workspace per call: its buffers are allocated
once, sized by the largest batch of leaves rather than by the tree, and
every batch and pass writes into them (``out=``, :func:`numpy.copyto`).
The far field's level loop writes its products and copies into the same
buffers: the bottom level's expansions and one buffer as large are the
only ones the tree sizes, since each level's products and copies fit in
the one that does not hold its expansions, and M2M puts half its products
where the expansions it has read were.  The reason is glibc's allocator:
it maps a block above its mmap threshold (128 KiB by default; _NEAR
doubles are exactly that) with mmap and unmaps it on free, or trims it off
the heap once the threshold has grown, so a fresh array per batch or pass
is faulted in again, page by page, each time it is touched.  Every product
keeps its operands, its arithmetic and its order, so the sums are bit for
bit those of fresh arrays.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
from numpy.polynomial.chebyshev import chebvander

PI = math.pi
_P = 20             # Chebyshev nodes per box of the far field
_LEAF = 24          # mean ordinates per leaf of a pair tree without a floor
_FIELD_LEAF = 2     # the same for a tree over targets (``over``), measured
_COLUMNS = 16       # charge columns per far-field pass
_NEAR = 1 << 14     # near-field differences per kernel call
_BATCH = 1 << 14    # charges per leaf batch (256 KB of complex), sources
                    # per block of P2M weights

_NODES = np.cos((2.0 * np.arange(_P) + 1.0) * PI / (2.0 * _P))
# T_k(node n) at [k, n], and the weight of T_k in the interpolant
_AT_NODES = chebvander(_NODES, _P - 1).T
_SCALE = np.full(_P, 2.0 / _P)
_SCALE[0] = 1.0 / _P


def _interp(x):
    """S[i, n]: weight of Chebyshev node n in the degree _P - 1 interpolant
    at x[i] in [-1, 1]."""
    return (chebvander(x, _P - 1) * _SCALE) @ _AT_NODES


# M2M: a child's expansion (left, right half) re-expanded on its parent;
# their transposes are L2L, a parent's local expansion on its children
_M2M = (_interp(0.5 * (_NODES - 1.0)).T, _interp(0.5 * (_NODES + 1.0)).T)
# node m of a box against node n of another, in box widths, less the
# distance between their centres
_GAP = 0.5 * (_NODES[:, None] - _NODES[None, :])


def _clenshaw(coef, idx, x):
    """sum_k coef[k, idx] T_k(x) by Clenshaw's recurrence, one vector per
    degree: the Chebyshev series of column idx[i] at x[i] in [-1, 1]."""
    x2 = 2.0 * x
    b1 = np.zeros(len(x), dtype=coef.dtype)
    b2 = np.zeros_like(b1)
    t = np.empty_like(b1)
    for k in range(len(coef) - 1, 0, -1):
        np.multiply(x2, b1, out=t)
        t += coef[k, idx]
        t -= b2
        b1, b2, t = t, b1, b2
    return coef[0, idx] + x * b1 - b2


def _floats(shape, dtype=float):
    """The number of floats an array of ``shape`` and ``dtype`` holds."""
    return math.prod(shape) * (np.dtype(dtype).itemsize // 8)


def _shaped(buf, shape, dtype=float):
    """The first entries of the flat float buffer ``buf`` as a C-contiguous
    array of ``shape`` and ``dtype`` (float or complex)."""
    return buf[:_floats(shape, dtype)].view(dtype).reshape(shape)


def _columns(first, rot, q, out):
    """first * rot^k for k = 0 .. count - 1 into out[..., k], count =
    len(q); q, of shape (count,) + first.shape, is scratch.

    Column k + j is column j times rot^k, for k = 1, 2, 4, ...: one complex
    multiply per entry and column, no exp, in about log2(count) array
    products.  The phase of column k carries k times the rounding of rot's,
    as a direct exp of k times its argument would.
    """
    count = len(q)
    q[0] = first
    k = 1
    while k < count:
        np.multiply(q[:min(k, count - k)], rot, out=q[k:2 * k])
        k *= 2
        if k < count:
            rot = rot * rot
    np.copyto(out, np.moveaxis(q, 0, -1))
    return out


def _pieces(lo, hi):
    """Index pairs (i, j) for every j in [lo[i], hi[i]), in pieces of about
    _NEAR pairs, each i whole in one piece; empty pieces are skipped."""
    counts = hi - lo
    cum = np.cumsum(counts)
    start, n = 0, len(lo)
    while start < n:
        base = cum[start - 1] if start else 0
        stop = max(int(np.searchsorted(cum, base + _NEAR, "right")),
                   start + 1)
        c = counts[start:stop]
        first = np.repeat(cum[start:stop] - c - base, c)
        i = np.repeat(np.arange(start, stop), c)
        if len(i):
            yield i, lo[i] + np.arange(len(i)) - first
        start = stop


class _Tree:
    """Uniform binary tree of 2^levels leaves of width h from ``origin``
    over the ascending sources g, listed leaf by leaf: ``first[a]`` to
    ``ends[a]``.

    ``_Tree(g, floor)`` is the pair engine's layout over [g[0], g[-1]].
    With a floor > 0 it has the most levels whose leaves are still at
    least ``floor`` wide, so a leaf is in [floor, 2 floor) wide unless all
    of g fits in one; without one, about _LEAF ordinates per leaf.
    :meth:`over` lays out a tree for targets apart from the sources.
    """

    def __init__(self, g: np.ndarray, floor: float):
        n, width = len(g), float(g[-1] - g[0])
        levels = 0
        if floor > 0.0:
            while width / 2 ** (levels + 1) >= floor:
                levels += 1
        else:
            while n / 2 ** (levels + 1) >= _LEAF:
                levels += 1
        self._lay_out(g, g[0], width / 2 ** levels, levels)

    @classmethod
    def over(cls, g: np.ndarray, lo: float, hi: float) -> _Tree:
        """A tree over the sources g and targets in [lo, hi]: leaves as
        wide as _FIELD_LEAF sources over the whole range, rounded down to a
        power of two, with edges on multiples of that width.  There every
        centre, every distance between centres and every offset of a source
        or target from its leaf's centre is exact, so no coordinate near
        t = 1e5 rounds into a phase or an interpolant."""
        tree = cls.__new__(cls)
        if len(g):
            lo, hi = min(lo, g[0]), max(hi, g[-1])
        origin, h, levels = lo, hi - lo, 0
        if len(g) >= 2 * _FIELD_LEAF and hi > lo:
            h = 2.0 ** math.floor(math.log2(_FIELD_LEAF * (hi - lo) / len(g)))
            origin = math.floor(lo / h) * h
            levels = math.ceil(math.log2((hi - origin) / h))
        tree._lay_out(g, origin, h, levels)
        return tree

    def _lay_out(self, g, origin, h, levels):
        self.g, self.origin, self.h, self.levels = g, origin, h, levels
        self.leaf, xi = self._locate(g)
        self.ends = np.searchsorted(self.leaf, np.arange(2 ** levels),
                                    "right")
        self.first = self.ends - np.diff(self.ends, prepend=0)
        # each source's place in its leaf; P2M weights are built from it
        # where they are used, a block of _BATCH sources at a time
        self.xi = xi

    def _locate(self, x):
        """The leaf of each point of x and its place in it, in [-1, 1]."""
        if not (self.levels and self.h > 0):
            return np.zeros(len(x), dtype=np.int64), np.zeros(len(x))
        pos = (x - self.origin) / self.h
        leaf = np.minimum(pos.astype(np.int64), 2 ** self.levels - 1)
        return leaf, np.clip(2.0 * (pos - leaf) - 1.0, -1.0, 1.0)

    # -- sums over the pairs of one set --------------------------------

    @cached_property
    def filled(self) -> np.ndarray:
        """(leaf, slot): slot k of leaf a holds its k-th source, the leaves
        padded to the fullest; the pair engine's batches read this layout."""
        counts = self.ends - self.first
        return np.arange(counts.max(initial=0)) < counts[:, None]

    @cached_property
    def slots(self) -> np.ndarray:
        """The source in each slot of :attr:`filled`, 0 on padding."""
        return np.where(self.filled, self.first[:, None]
                        + np.arange(self.filled.shape[1]), 0)

    @cached_property
    def p2m(self) -> np.ndarray:
        """P2M of the padded layout: one (node x slot) weight matrix per
        leaf, zero on padding; built for the pair engine's far field."""
        p2m = np.zeros((len(self.slots), _P, self.slots.shape[1]))
        slot = np.arange(len(self.g)) - self.first[self.leaf]
        for s in range(0, len(self.g), _BATCH):
            b = np.s_[s:s + _BATCH]
            p2m[self.leaf[b], :, slot[b]] = _interp(self.xi[b])
        return p2m

    def _batches(self, columns):
        """Leaf ranges [a, b) whose (leaf, slot, column) charges hold about
        _BATCH entries, each with the slot width the near field needs: the
        fullest of leaves a .. b, b for the right neighbour of b - 1."""
        counts = self.filled.sum(axis=1)
        n_leaf, slots = self.slots.shape
        step = max(1, _BATCH // (slots * columns))
        for a in range(0, n_leaf, step):
            b = min(a + step, n_leaf)
            yield a, b, max(int(counts[a:b + 1].max()), 1)

    def near(self):
        """Positive differences g[j] - g[i] of the near pairs, i < j, j in
        the leaf of i or the next, in pieces of about _NEAR."""
        n = len(self.g)
        lim = self.ends[np.minimum(self.leaf + 1, 2 ** self.levels - 1)]
        for i, j in _pieces(np.arange(n) + 1, lim):
            yield self.g[j] - self.g[i]

    def near_columns(self, kernel, step, count) -> np.ndarray:
        """sum over near pairs i < j of Re[kernel(d) exp(i k step d)], d =
        g[j] - g[i], for k = 0 .. count - 1; ``kernel`` real at every d.

        Each leaf a gives Re conj(C_a)^T W_a [C_a; C_b] per column: b is
        the leaf to its right, W_a = kernel(g_j - g_i) for i in a and j in
        a or b, masked to i < j, and C = exp(i k step (g - o)) the charges,
        zero on padding.  The origin o is one leaf edge per batch of
        leaves, so every pair's phase is that of g_j - g_i itself; a phase
        factor between leaf edges would carry their rounding, which near
        t = 1e5 turns the phase of alpha = 4 by about 1e-9.  A batch pads
        its leaves only to the fullest among them, so one leaf holding a
        cluster of ordinates widens no other.
        """
        g = self.g
        n_leaf = len(self.slots)
        # each batch with its blocks of rows of W, about _BATCH entries
        # each: one block unless a leaf holds a cluster of ordinates
        batches = [(a, b, width,
                    min(width, max(1, _BATCH // ((b - a) * 2 * width))))
                   for a, b, width in self._batches(count)]
        # the workspace, as large as the largest batch needs: the charges'
        # column recurrence, whose buffer then takes W times the charges
        # (never larger), the charges, and W
        charges = max(_floats((b - a + 1, width, count), complex)
                      for a, b, width, _ in batches)
        q_buf, c_buf = np.empty(charges), np.empty(charges)
        w_buf = np.empty(max(_floats((b - a, rows, 2 * width))
                             for a, b, width, rows in batches))
        out = np.zeros(2 * count)
        for a, b, width, rows in batches:
            # the batch's leaves and the leaf right of its last one, empty
            # past the end of the tree
            idx = self.slots[a:b + 1, :width]
            filled = self.filled[a:b + 1, :width]
            if b == n_leaf:
                idx = np.concatenate([idx, idx[-1:]])
                filled = np.concatenate([filled, np.zeros_like(filled[-1:])])
            gi = g[idx]
            c = _columns(filled,
                         np.exp(1j * step * (gi - (g[0] + a * self.h))),
                         _shaped(q_buf, (count,) + gi.shape, complex),
                         _shaped(c_buf, gi.shape + (count,), complex))
            pair = np.concatenate([gi[:-1], gi[1:]], axis=1)
            # [C_a; C_b] of every leaf a: consecutive rows of c, as a view
            cf = c.view(float)
            both = np.lib.stride_tricks.as_strided(
                cf, (b - a, 2 * width, 2 * count), cf.strides)
            for i in range(0, width, rows):
                r = slice(i, i + rows)
                n = min(rows, width - i)
                d = np.subtract(pair[:, None, :], gi[:-1, r, None],
                                out=_shaped(w_buf, (b - a, n, 2 * width)))
                w = np.multiply(kernel(d), np.arange(2 * width)
                                > np.arange(width)[r, None], out=d)
                # Re(conj(x) y) = Re x Re y + Im x Im y, on float views
                out += np.einsum("lsk,lsk->k", cf[:-1, r], np.matmul(
                    w, both, out=_shaped(q_buf, (b - a, n, 2 * count))))
        return out.reshape(count, 2).sum(axis=1)

    def far(self, kernel, omega, step=0.0, count=1) -> np.ndarray:
        """sum over far pairs i < j of Re[kernel(d) exp(i w d)], d = g[j] -
        g[i], for w = omega + k step, k = 0 .. count - 1.

        The charges exp(-i w (g - centre)) of each column are those of the
        column before times exp(-i step (g - centre)); a pass of _COLUMNS
        columns starts from the last column of the pass before.
        """
        out = np.zeros(count)
        if self.levels < 2:
            return out
        # M2L per level: target node m against source node n of the box
        # 2 or 3 boxes to the left
        m2l = {}
        for lev in range(2, self.levels + 1):
            h = self.h * 2 ** (self.levels - lev)
            m2l[lev] = [kernel(off * h + h * _GAP) for off in (2, 3)]
        # P2M's weights first, so that the transients of building them are
        # not held with the charges or the workspace
        p2m = self.p2m
        x = self.g[self.slots] - 0.5 * (self.g[0] + self.g[-1])
        q = np.exp(-1j * omega * x)
        rot = np.exp(-1j * step * x) if count > 1 else np.ones_like(q)
        # every pass takes the batches of the first, the widest
        n_leaf, slots = x.shape
        cols = min(_COLUMNS, count)
        batches = [(a, b) for a, b, _ in self._batches(cols)]
        # the workspace: the bottom level's expansions; a buffer as large
        # that holds a batch's column recurrence and then its P2M product
        # while P2M runs, and then each level's products and copies of
        # strided boxes, the expansions of the level above alternating
        # between the two; and a batch's charges
        nb = max(b - a for a, b in batches)
        bottom = np.empty(_floats((_P, n_leaf, 2 * cols)))
        work = np.empty(max(len(bottom),
                            _floats((nb, max(slots, _P), cols), complex)))
        charges = np.empty(_floats((nb, slots, cols), complex))
        for k in range(0, count, _COLUMNS):
            cols = min(_COLUMNS, count - k)
            m = _shaped(bottom, (_P, n_leaf, 2 * cols))
            for a, b in batches:
                c = _columns(q[a:b], rot[a:b],
                             _shaped(work, (cols, b - a, slots), complex),
                             _shaped(charges, (b - a, slots, cols),
                                     complex))
                if k + cols < count:
                    np.multiply(c[..., -1], rot[a:b], out=q[a:b])
                m[:, a:b] = np.matmul(
                    p2m[a:b], c.view(float),
                    out=_shaped(work, (b - a, _P, 2 * cols))
                ).transpose(1, 0, 2)
            m, held, spare = m.view(complex), bottom, work
            for lev in range(self.levels, 1, -1):
                out[k:k + cols] += _m2l_dot(m2l[lev], m, spare)
                if lev > 2:
                    m = _m2m(m, held, spare)
                    held, spare = spare, held
        return out

    # -- sums at targets apart from the sources -------------------------

    def locals(self, kernel, omega):
        """Local expansion of every leaf for the far field sum_j K(t - g_j)
        e^(i omega (t - g_j)) over the sources j outside the leaf of t and
        its two neighbours, as Chebyshev coefficients (degree, leaf); None
        if there are none.

        P2M takes the charges e^(-i omega (g_j - c)) from the centre c of
        each source's leaf, M2M and L2L move them from box to box by the
        phase between their centres, and M2L brings in the boxes of the
        interaction list on either side, 2 or 3 boxes away, with phase
        e^(i omega (c_target - c_source)).  ``kernel`` is K, real; in a
        tree laid out by :meth:`over` each phase is that of an exact
        distance.
        """
        if self.levels < 2:
            return None
        n_leaf = 2 ** self.levels
        centre = self.origin + (np.arange(n_leaf) + 0.5) * self.h
        m = np.zeros((n_leaf, _P), dtype=complex)
        for s in range(0, len(self.g), _BATCH):
            b = np.s_[s:s + _BATCH]
            leaf = self.leaf[b]
            q = np.exp(-1j * omega * (self.g[b] - centre[leaf]))
            # the block's runs of one leaf; a leaf cut by the block's
            # edge gets a partial sum from each side
            run = np.flatnonzero(np.diff(leaf, prepend=-1))
            m[leaf[run]] += np.add.reduceat(_interp(self.xi[b]) * q[:, None],
                                            run)
        mult = {self.levels: m.T}
        for lev in range(self.levels, 2, -1):
            # a child's centre is half its width left or right of its
            # parent's
            s = np.exp(0.5j * omega * self.h * 2 ** (self.levels - lev))
            m = mult[lev]
            mult[lev - 1] = _times(s * _M2M[0], m[:, 0::2]) \
                + _times(s.conjugate() * _M2M[1], m[:, 1::2])
        loc = np.zeros((_P, 4), dtype=complex)
        for lev in range(2, self.levels + 1):
            h = self.h * 2 ** (self.levels - lev)
            if lev > 2:
                s = np.exp(0.5j * omega * h)
                up, loc = loc, np.empty((_P, 2 * loc.shape[1]), dtype=complex)
                loc[:, 0::2] = _times(s.conjugate() * _M2M[0].T, up)
                loc[:, 1::2] = _times(s * _M2M[1].T, up)
            m = mult[lev]
            for off, right, left in ((2, np.s_[2:], np.s_[:-2]),
                                     (3, np.s_[3::2], np.s_[:-3:2])):
                for d, tgt, src in ((off * h, right, left),
                                    (-off * h, left, right)):
                    mat = kernel(d + h * _GAP) * np.exp(1j * omega * d)
                    loc[:, tgt] += _times(mat, m[:, src])
        # node values to the coefficients of their interpolant
        return _times(_SCALE[:, None] * _AT_NODES, loc)

    def far_at(self, t, coef, omega) -> np.ndarray:
        """L2P: the far field of :meth:`locals` at the points t, each
        leaf's Chebyshev series summed by Clenshaw's recurrence."""
        if coef is None:
            return np.zeros(len(t), dtype=complex)
        leaf, xi = self._locate(t)
        u = t - (self.origin + (leaf + 0.5) * self.h)
        return np.exp(1j * omega * u) * _clenshaw(coef, leaf, xi)

    def near_at(self, t):
        """Index pairs (i, j) of the points t[i] and the sources g[j] in the
        leaf of t[i] and the two next to it, in pieces of about _NEAR."""
        leaf, _ = self._locate(t)
        top = 2 ** self.levels - 1
        return _pieces(self.first[np.maximum(leaf - 1, 0)],
                       self.ends[np.minimum(leaf + 1, top)])


def _times(mat, m, out=None, copy=None):
    """mat @ m over the node axis of box expansions m (node, box, ...); a
    real mat multiplies the float view of m, half the work of a complex
    product.  Given a flat float buffer ``out``, the product is written to
    its start, and m is first copied, where its boxes are strided, as
    reshape would copy it, to the flat float buffer ``copy`` (by default
    the rest of ``out``): the same matrix product, with nothing
    allocated."""
    src = m if np.iscomplexobj(mat) else m.view(float)
    if out is None:
        return (mat @ src.reshape(_P, -1)).view(complex).reshape(m.shape)
    shape = (_P, src[0].size)
    if not src[0].flags.c_contiguous:
        if copy is None:
            copy = out[_floats(shape, src.dtype):]
        dense = _shaped(copy, src.shape, src.dtype)
        np.copyto(dense, src)
        src = dense
    prod = np.matmul(mat, src.reshape(shape),
                     out=_shaped(out, shape, src.dtype))
    return prod.view(complex).reshape(m.shape)


def _m2m(m, held, out):
    """M2M: the expansions of the parents of the boxes of m, each the sum
    of its children's re-expanded, written to the start of the flat float
    buffer ``out``.  m is held in the flat float buffer ``held``, which
    takes the right children's product once both halves of m are copied
    out of it: the level above needs no more room than m."""
    half = m.size           # floats in the product of either child
    left = _times(_M2M[0], m[:, 0::2], out)
    right = _times(_M2M[1], m[:, 1::2], held, out[half:])
    return np.add(left, right, out=left)


def _m2l_dot(mats, m, out):
    """Re of the sum over well-separated boxes (source left of target) of
    conj(M_target) . K M_source, the products through the flat float
    buffer ``out`` (:func:`_times`).  M2L into local expansions followed
    by L2L and L2P against the targets' own charges is this same bilinear
    form, since L2L and L2P are the transposes of M2M and P2M."""
    res = np.zeros(2 * m.shape[2])
    for mat, tgt, src in ((mats[0], m[:, 2:], m[:, :-2]),
                          (mats[1], m[:, 3::2], m[:, 0:-3:2])):
        if tgt.shape[1]:
            # Re(conj(a) b) = Re a Re b + Im a Im b, on float views
            res += np.einsum("pbk,pbk->k", tgt.view(float),
                             _times(mat, src, out).view(float))
    return res.reshape(-1, 2).sum(axis=1)
