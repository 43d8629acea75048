# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled twins of the pure enumeration kernels.

Same signatures and bit-identical results as _kernels_py; that module
documents the contracts.  Inputs outside comfortable C ranges (more than
600 edges, or more than 16 vertices for the counting walks) delegate to
the pure code so the two backends never disagree.  The composition sums
have no compiled twin.
"""

from libc.string cimport memset

from . import _kernels_py as _py


def lower_half_masks(int nv, tails, heads):
    """Masks S with no edge entering S from outside, in increasing order."""
    if nv > 25:
        raise ValueError(f"mask scan over {nv} vertices refused")
    cdef int m = len(tails)
    if m > 600:
        return _py.lower_half_masks(nv, tails, heads)
    cdef long tb[600]
    cdef long hb[600]
    cdef int e
    for e in range(m):
        tb[e] = 1 << <int> tails[e]
        hb[e] = 1 << <int> heads[e]
    cdef long mask, top = (<long> 1) << nv
    cdef bint ok
    out = []
    for mask in range(top):
        ok = True
        for e in range(m):
            if not tb[e] & mask and hb[e] & mask:
                ok = False
                break
        if ok:
            out.append(mask)
    return out


cdef long long _color_walk(int i, int nv, long long n, bint strict, long long* color,
                           int* back_start, int* back_j, bint* back_f) noexcept:
    cdef long long total = 0, c, cj
    cdef int idx
    cdef bint ok, good
    if i == nv:
        return 1
    for c in range(n):
        ok = True
        for idx in range(back_start[i], back_start[i + 1]):
            cj = color[back_j[idx]]
            if back_f[idx]:
                good = cj < c if strict else cj <= c
            else:
                good = c < cj if strict else c <= cj
            if not good:
                ok = False
                break
        if ok:
            color[i] = c
            total += _color_walk(i + 1, nv, n, strict, color,
                                 back_start, back_j, back_f)
    return total


cdef int _build_back(int nv, tails, heads, int* back_start, int* back_j,
                     bint* back_f) except -1:
    cdef int m = len(tails)
    cdef int deg[16]
    cdef int fill[16]
    cdef int e, i, t, h, pos
    memset(deg, 0, sizeof(deg))
    for e in range(m):
        t = <int> tails[e]
        h = <int> heads[e]
        deg[h if t < h else t] += 1
    back_start[0] = 0
    for i in range(nv):
        back_start[i + 1] = back_start[i] + deg[i]
        fill[i] = back_start[i]
    for e in range(m):
        t = <int> tails[e]
        h = <int> heads[e]
        if t < h:
            pos = fill[h]
            fill[h] += 1
            back_j[pos] = t
            back_f[pos] = True
        else:
            pos = fill[t]
            fill[t] += 1
            back_j[pos] = h
            back_f[pos] = False
    return 0


def count_strict_colorings(int nv, tails, heads, long long n):
    """Maps f from vertices to {1..n} with f strictly increasing along edges."""
    return _count_colorings(nv, tails, heads, n, True)


def count_weak_colorings(int nv, tails, heads, long long n):
    """Maps f from vertices to {1..n} with f weakly increasing along edges."""
    return _count_colorings(nv, tails, heads, n, False)


def _count_colorings(int nv, tails, heads, long long n, bint strict):
    if nv == 0:
        return 1
    if n <= 0:
        return 0
    cdef int m = len(tails)
    if m > 600 or nv > 16:
        return _py._count_colorings(nv, tails, heads, n, strict)
    cdef int back_start[17]
    cdef int back_j[600]
    cdef bint back_f[600]
    cdef long long color[16]
    _build_back(nv, tails, heads, back_start, back_j, back_f)
    return _color_walk(0, nv, n, strict, color, back_start, back_j, back_f)


cdef long long _dilation_walk(int i, int nv, long long lo, long long hi, bint strict,
                              long long* coord, int* back_start, int* back_j,
                              bint* back_f) noexcept:
    cdef long long total = 0, x, xj
    cdef int idx
    cdef bint ok, good
    if i == nv:
        return 1
    x = lo
    while x <= hi:
        ok = True
        for idx in range(back_start[i], back_start[i + 1]):
            xj = coord[back_j[idx]]
            if back_f[idx]:
                good = xj < x if strict else xj <= x
            else:
                good = x < xj if strict else x <= xj
            if not good:
                ok = False
                break
        if ok:
            coord[i] = x
            total += _dilation_walk(i + 1, nv, lo, hi, strict, coord,
                                    back_start, back_j, back_f)
        x += 1
    return total


def count_dilation_points(int nv, tails, heads, long long dilation, bint interior):
    """Lattice points of the dilated edge-order polytope; see the pure twin."""
    if dilation < 0:
        return 0
    cdef long long lo = 1 if interior else 0
    cdef long long hi = dilation - 1 if interior else dilation
    if nv and lo > hi:
        return 0
    cdef int m = len(tails)
    if m > 600 or nv > 16:
        return _py.count_dilation_points(nv, tails, heads, dilation, interior)
    cdef int back_start[17]
    cdef int back_j[600]
    cdef bint back_f[600]
    cdef long long coord[16]
    _build_back(nv, tails, heads, back_start, back_j, back_f)
    return _dilation_walk(0, nv, lo, hi, interior, coord,
                          back_start, back_j, back_f)
