"""One Gorenstein dimension decides the certifier.

`homology.gorenstein_dimension(a)` is the d with id(_A A) = id(A_A) = d
<= 3, or None.  Over a proven d a module is GP exactly when Ext^i(-, A)
vanishes for 1 <= i <= d, so the certifier builds a right tail and a
two-sided probe only when d is unproven.  These tests take that general
path on a ring of infinite Gorenstein dimension, and compare the one path
with the old branches, kept verbatim as `test_gpcert.eager_certify`: the
finite global dimension branch, the self-injective branch and the general
path that every other algebra took.
"""
from __future__ import annotations

import dataclasses
import json
import random

import pytest

from gpmorita import complexes
from gpmorita.algebra import Algebra
from gpmorita.catalog import (
    path_a2, random_module, random_quadruple, simple_at_idempotent,
    simple_kx2, triangular_over, truncated_poly,
)
from gpmorita.fields import GF, QQ
from gpmorita.gpcert import certify_gorenstein_projective
from gpmorita.homology import (
    global_dimension, gorenstein_dimension, is_projective, simple_modules,
)
from gpmorita.jsonio import certificate_to_json
from gpmorita.linalg import Mat
from gpmorita.morita import build_ring, quadruple_to_module, z_a
from gpmorita.verify import verify_certificate

from test_gpcert import eager_certify


def _dual_numbers_times_square_zero_plane(F) -> Algebra:
    """k[x]/(x^2) x k[u, v]/(u, v)^2 on the basis 1_1, x, 1_2, u, v, from
    its structure constants.  The first factor is self-injective, the
    second has a two-dimensional socle and infinite self-injective
    dimension, so the product has no finite Gorenstein dimension."""
    products = {(0, 0): 0, (0, 1): 1, (1, 0): 1,
                (2, 2): 2, (2, 3): 3, (3, 2): 3, (2, 4): 4, (4, 2): 4}
    rows = [[0] * 5 for _ in range(25)]
    for (i, j), k in products.items():
        rows[5 * i + j][k] = 1
    return Algebra(F, 5, Mat(F, rows, 5),
                   [F.one(), F.zero(), F.one(), F.zero(), F.zero()],
                   name="k[x]/x^2 x k[u,v]/(u,v)^2")


@pytest.mark.parametrize("F", [QQ(), GF(7)], ids=["Q", "GF7"])
def test_an_unproven_dimension_takes_the_general_path(F, count_calls):
    a = _dual_numbers_times_square_zero_plane(F)
    assert gorenstein_dimension(a) is None
    probes = count_calls(complexes.hom_exactness_failure)
    # the simple of k[x]/(x^2) is its own cosyzygy
    s1 = simple_at_idempotent(a, 0)
    cert = certify_gorenstein_projective(s1, window=2)
    assert (cert.verdict, cert.reason, cert.period) == ("gp", "periodic", 1)
    assert probes, "the two-sided probe was not built"
    assert verify_certificate(cert, s1) == []
    # Ext^1(k, k[u,v]/(u,v)^2) != 0 over the second factor
    s2 = simple_at_idempotent(a, 2)
    cert = certify_gorenstein_projective(s2, window=2)
    assert cert.verdict == "not_gp"
    assert (cert.witness.kind, cert.witness.degree) == ("non_vanishing_ext", 1)
    assert verify_certificate(cert, s2) == []


def _as_json(cert):
    return json.dumps(certificate_to_json(cert, cert.module.algebra.name))


def _cut_resolution(cert, length):
    """cert with its witness resolution cut to `length` maps."""
    res = cert.witness.resolution
    cut = dataclasses.replace(res, terms=res.terms[:length + 1],
                              maps=res.maps[:length],
                              syzygies=res.syzygies[:length + 1])
    return dataclasses.replace(
        cert, witness=dataclasses.replace(cert.witness, resolution=cut))


def _modules(F, n):
    """The non-projective simples and seeded draws over kA2, and over
    T2(R), R = k[x]/(x^n), the ring modules of Z_A(k) and of seeded
    quadruples that are not projective."""
    rng = random.Random(37)
    a = path_a2(F)
    mods = simple_modules(a) + [random_module(a, rng, max_cuts=3) for _ in range(6)]
    r = truncated_poly(F, n)
    ctx = triangular_over(r)
    ring = build_ring(ctx)
    quads = [z_a(ctx, simple_kx2(r))] + [random_quadruple(ctx, rng) for _ in range(25)]
    mods += [quadruple_to_module(ring, q) for q in quads if q.dim]
    return [m for m in mods if m.dim and not is_projective(m)]


# T2(k[x]/(x^3)) has dimension 9, and the radical by trace form needs a
# characteristic above it: GF(11) there, not GF(7)
@pytest.mark.parametrize("n, F", [(2, QQ()), (2, GF(7)), (3, QQ()), (3, GF(11))],
                         ids=["n2-Q", "n2-GF7", "n3-Q", "n3-GF11"])
def test_one_path_gives_the_certificates_of_the_old_branches(n, F):
    seen, cuts = set(), 0
    for m in _modules(F, n):
        a = m.algebra
        for window in (2, 3):
            cert = certify_gorenstein_projective(m, window=window)
            old = eager_certify(m, window=window)
            assert (cert.verdict, cert.reason, cert.period) == (
                old.verdict, old.reason, old.period), (m.name, window)
            seen.add((cert.verdict, cert.reason))
            if (cert.verdict == "not_gp" and cert.witness.kind == "non_vanishing_ext"
                    and global_dimension(a, window) is None):
                # over infinite global dimension the old witness resolution
                # ran over the window; a proven d needs d + 1 maps of it
                d = gorenstein_dimension(a)
                assert len(old.witness.resolution.maps) == window + 1
                assert len(cert.witness.resolution.maps) == d + 1
                old = _cut_resolution(old, d + 1)
                cuts += 1
            assert _as_json(cert) == _as_json(old), (m.name, window)
    assert {("gp", "periodic"), ("not_gp", "")} <= seen, seen
    assert cuts
