"""PG(2, q) built with vectorized field tables equals the scalar reference.

:func:`repro.combinatorics.steiner.projective_plane` computes line
membership over the whole point array with ``GF.mul_vec``/``add_vec``.
The reference below is the scalar loop it replaced — one validated
``GF.add``/``GF.mul`` call per coordinate — and the two must agree on
the point order, the line order and every line, for every prime power
``q <= 16``.
"""

import pytest

from repro.combinatorics.gf import field, prime_powers
from repro.combinatorics.steiner import projective_plane


def _scalar_normalize(f, vec):
    for coord in vec:
        if coord != 0:
            inv = f.inv(coord)
            return tuple(f.mul(inv, c) for c in vec)
    return None


def _scalar_projective_plane(q):
    f = field(q)
    points = []
    index = {}
    for x in range(q):
        for y in range(q):
            for z in range(q):
                rep = _scalar_normalize(f, (x, y, z))
                if rep is not None and rep not in index:
                    index[rep] = len(points)
                    points.append(rep)
    lines = []
    for a, b, c in points:
        lines.append(frozenset(
            index[p] for p in points
            if f.add(f.add(f.mul(a, p[0]), f.mul(b, p[1])),
                     f.mul(c, p[2])) == 0))
    return len(points), lines


def _prime_powers_up_to(limit):
    out = []
    for q in prime_powers():
        if q > limit:
            return out
        out.append(q)


@pytest.mark.parametrize("q", _prime_powers_up_to(16))
def test_vectorized_plane_equals_scalar_reference(q):
    assert projective_plane(q) == _scalar_projective_plane(q)
