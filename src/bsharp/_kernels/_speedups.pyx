# cython: language_level=3
# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled level-sequence kernels.

Mirror of ``_fallback`` (see its docstring for the contract and the mask
conventions).  Both backends must agree bit-for-bit; the conformance tests
compare them on every tree up to order 7.  Sequences are at most 62 nodes,
so fixed 64-byte stack buffers and 64-bit masks are sufficient.
"""

from cpython.bytes cimport PyBytes_AS_STRING, PyBytes_FromStringAndSize
from libc.string cimport memcmp, memcpy

BACKEND = "cython"

_canon_cache = {}


def clear_caches():
    _canon_cache.clear()


cdef inline const unsigned char* _ptr(bytes b):
    return <const unsigned char*> PyBytes_AS_STRING(b)


cdef inline bytes _mk(const unsigned char* buf, Py_ssize_t n):
    return PyBytes_FromStringAndSize(<const char*> buf, n)


cdef bint _seg_less(const unsigned char* a, int la, const unsigned char* b, int lb) noexcept:
    cdef int m = la if la < lb else lb
    cdef int c = memcmp(a, b, m)
    if c != 0:
        return c < 0
    return la < lb


cdef void _canon_c(const unsigned char* seq, int n, unsigned char* out) noexcept:
    cdef unsigned char scratch[64]
    cdef int starts[64]
    cdef int offs[64]
    cdef int lens[64]
    cdef int m = 0, i, k, j, o, l, pos
    cdef unsigned char target
    if n <= 2:
        memcpy(out, seq, n)
        return
    target = seq[0] + 1
    for i in range(1, n):
        if seq[i] == target:
            starts[m] = i
            m += 1
    if m == 1:
        out[0] = seq[0]
        _canon_c(seq + 1, n - 1, out + 1)
        return
    starts[m] = n
    for k in range(m):
        _canon_c(seq + starts[k], starts[k + 1] - starts[k], scratch + (starts[k] - 1))
    for k in range(m):
        offs[k] = starts[k] - 1
        lens[k] = starts[k + 1] - starts[k]
    for k in range(1, m):
        o = offs[k]
        l = lens[k]
        j = k - 1
        while j >= 0 and _seg_less(scratch + offs[j], lens[j], scratch + o, l):
            offs[j + 1] = offs[j]
            lens[j + 1] = lens[j]
            j -= 1
        offs[j + 1] = o
        lens[j + 1] = l
    out[0] = seq[0]
    pos = 1
    for k in range(m):
        memcpy(out + pos, scratch + offs[k], lens[k])
        pos += lens[k]


def canonical_levels(bytes levels):
    out = _canon_cache.get(levels)
    if out is not None:
        return out
    cdef Py_ssize_t n = len(levels)
    if n > 62:
        raise ValueError("level sequence longer than 62 nodes")
    cdef unsigned char buf[64]
    _canon_c(_ptr(levels), <int> n, buf)
    res = _mk(buf, n)
    _canon_cache[levels] = res
    return res


def successor_levels(bytes levels):
    cdef Py_ssize_t n = len(levels)
    cdef const unsigned char* lv = _ptr(levels)
    cdef int p = -1, i, q, width
    cdef unsigned char out[64]
    for i in range(<int> n - 1, -1, -1):
        if lv[i] > 1:
            p = i
            break
    if p < 0:
        return None
    q = p - 1
    while lv[q] != lv[p] - 1:
        q -= 1
    if p > 0:
        memcpy(out, lv, p)
    width = p - q
    for i in range(p, <int> n):
        out[i] = out[i - width]
    return _mk(out, n)


cdef void _parents_c(const unsigned char* lv, int n, unsigned char* parent) noexcept:
    cdef unsigned char last_at[64]
    cdef int i
    for i in range(64):
        last_at[i] = 0
    parent[0] = 0
    for i in range(1, n):
        parent[i] = last_at[lv[i] - 1]
        last_at[lv[i]] = <unsigned char> i


def parents_of(bytes levels):
    cdef Py_ssize_t n = len(levels)
    cdef unsigned char parent[64]
    _parents_c(_ptr(levels), <int> n, parent)
    return _mk(parent, n)


def _member_key(bytes member):
    return (len(member), member)


cdef inline int _subtree_end_c(const unsigned char* lv, int n, int i) noexcept:
    cdef int j = i + 1
    cdef unsigned char base = lv[i]
    while j < n and lv[j] > base:
        j += 1
    return j


cdef bytes _canon_slice(const unsigned char* lv, int start, int end):
    # canonicalize lv[start:end] shifted so its first entry is level 0
    cdef unsigned char tmp[64]
    cdef unsigned char base = lv[start]
    cdef int k
    for k in range(start, end):
        tmp[k - start] = lv[k] - base
    return canonical_levels(_mk(tmp, end - start))


def subtree_split_for_mask(bytes levels, object mask_obj):
    cdef Py_ssize_t n = len(levels)
    cdef const unsigned char* lv = _ptr(levels)
    cdef unsigned long long mask = mask_obj
    cdef unsigned char parent[64]
    cdef unsigned char sub[64]
    cdef int nsub = 0, i = 0, end
    _parents_c(lv, <int> n, parent)
    forest = []
    while i < <int> n:
        if (mask >> i) & 1:
            sub[nsub] = lv[i]
            nsub += 1
            i += 1
        elif (mask >> parent[i]) & 1:
            end = _subtree_end_c(lv, <int> n, i)
            forest.append(_canon_slice(lv, i, end))
            i = end
        else:
            i += 1
    forest.sort(key=_member_key)
    return canonical_levels(_mk(sub, nsub)), tuple(forest)


cdef tuple _partition_for_mask_c(const unsigned char* lv, int n,
                                 const unsigned char* parent,
                                 unsigned long long mask):
    cdef unsigned char comp[64]
    cdef unsigned char skel_level[64]
    cdef unsigned char skel[64]
    cdef unsigned char mem[64]
    cdef int roots[64]
    cdef int nroots = 1, nskel = 1, i, j, r, k, nmem, end
    cdef unsigned char lvl, base
    comp[0] = 0
    skel_level[0] = 0
    skel[0] = 0
    roots[0] = 0
    for i in range(1, n):
        if (mask >> (i - 1)) & 1:
            comp[i] = <unsigned char> i
            lvl = skel_level[comp[parent[i]]] + 1
            skel_level[i] = lvl
            skel[nskel] = lvl
            nskel += 1
            roots[nroots] = i
            nroots += 1
        else:
            comp[i] = comp[parent[i]]
    members = []
    for k in range(nroots):
        r = roots[k]
        base = lv[r]
        nmem = 0
        end = _subtree_end_c(lv, n, r)
        for j in range(r, end):
            if comp[j] == r:
                mem[nmem] = lv[j] - base
                nmem += 1
        members.append(canonical_levels(_mk(mem, nmem)))
    members.sort(key=_member_key)
    return canonical_levels(_mk(skel, nskel)), tuple(members)


def partition_split_for_mask(bytes levels, object mask_obj):
    cdef Py_ssize_t n = len(levels)
    cdef const unsigned char* lv = _ptr(levels)
    cdef unsigned char parent[64]
    _parents_c(lv, <int> n, parent)
    return _partition_for_mask_c(lv, <int> n, parent, <unsigned long long> mask_obj)


cdef _masks_rec(const unsigned char* parent, int n, int i, unsigned long long mask, list out):
    if i == n:
        out.append(mask)
        return
    _masks_rec(parent, n, i + 1, mask, out)
    if (mask >> parent[i]) & 1:
        _masks_rec(parent, n, i + 1, mask | ((<unsigned long long> 1) << i), out)


def closed_subtree_masks(bytes levels):
    cdef Py_ssize_t n = len(levels)
    cdef unsigned char parent[64]
    _parents_c(_ptr(levels), <int> n, parent)
    out: list = []
    _masks_rec(parent, <int> n, 1, 1, out)
    return out


def subtree_splits(bytes levels):
    out = [subtree_split_for_mask(levels, mask) for mask in closed_subtree_masks(levels)]
    out.append((None, (canonical_levels(levels),)))
    return out

