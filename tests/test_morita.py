from __future__ import annotations

import glob
import json
import os
import random
from dataclasses import replace

import pytest

from gpmorita import morita

from gpmorita.algebra import opposite_algebra, validate_algebra
from gpmorita.bimodules import BalancedMap
from gpmorita.catalog import (
    arrow_ideal_context, glued_psi_context, path_a2, random_module,
    triangular_context, two_cycle_context, upper_triangular3_context,
    wide_psi_context,
)
from gpmorita.fields import GF, QQ
from gpmorita.linalg import Mat
from gpmorita.modules import (
    ModuleHom, cokernel_of, hom_dim, hom_space, is_isomorphic, kernel_of,
    regular_module, validate_module,
)
from gpmorita.morita import (
    ContextError, build_ring, classify_injectives, classify_projectives,
    MoritaContext, direct_sum_quadruples, h_a, h_b, module_to_quadruple,
    opposite_context, opposite_ring, p_a, p_b, q_a, quadruple_to_module,
    regular_quadruple, regular_right_quadruples, swap_context, swap_quadruple,
    t_a, t_b, tensor_over_ring, tensor_over_ring_oracle, validate_context,
    validate_quadruple, z_a,
)
from gpmorita.homology import is_projective, simple_modules
from gpmorita.jsonio import load_problem
from gpmorita.trivext import t_lambda

from element_products import multiply

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _contexts():
    _, tri = triangular_context(QQ())
    _, cyc = two_cycle_context(QQ())
    _, glued = glued_psi_context(QQ())
    return [tri, cyc, glued]


def test_validate_standard_contexts():
    for ctx in _contexts():
        assert validate_context(ctx) == []


@pytest.mark.parametrize("spec, F", [("Q", QQ()), ({"p": 7}, GF(7))],
                         ids=["Q", "GF7"])
def test_context_ring_is_associative_and_unital_without_a_recheck(spec, F,
                                                                  count_calls):
    # validate_context proves the ring axioms, so build_ring checks nothing
    # on the ring it builds; validate_algebra confirms the transcription
    contexts = [make(F)[1] for make in (triangular_context, two_cycle_context,
                                        glued_psi_context, arrow_ideal_context)]
    fixtures = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    for path in sorted(glob.glob(os.path.join(fixtures, "*.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        doc["field"] = spec
        contexts += load_problem(doc).contexts.values()
    assert len(contexts) == 9
    calls = count_calls(validate_algebra)
    for ctx in contexts:
        for c in (ctx, swap_context(ctx)):
            mr = build_ring(c)
            assert all(args[0] is not mr.ring for args in calls)
            assert validate_algebra(mr.ring) == []


def test_validate_rejects_corrupted_psi():
    ext, ctx = glued_psi_context(QQ())
    # break balancedness/linearity: send n (x) m to 1 instead of x
    bad = BalancedMap(ctx.N, ctx.M, ctx.A, Mat.from_rows(QQ(), [[1, 0]], 2))
    broken = MoritaContext(ctx.A, ctx.B, ctx.M, ctx.N, ctx.phi, bad)
    assert validate_context(broken) != []
    with pytest.raises(ContextError):
        build_ring(broken)


def test_build_ring_two_cycle():
    _, ctx = two_cycle_context(QQ())
    mr = build_ring(ctx)
    assert mr.ring.dim == 4
    # both off-diagonal products vanish
    n, m = mr.ring.basis_el(mr.offs[1]), mr.ring.basis_el(mr.offs[2])
    assert multiply(mr.ring, n, m) == mr.ring.zero_el()
    assert multiply(mr.ring, m, n) == mr.ring.zero_el()
    # e1 + e2 = 1, orthogonal
    one = [a + b for a, b in zip(mr.e1, mr.e2)]
    assert one == mr.ring.unit
    assert multiply(mr.ring, mr.e1, mr.e2) == mr.ring.zero_el()


def test_build_ring_glued_psi():
    _, ctx = glued_psi_context(QQ())
    mr = build_ring(ctx)
    assert mr.ring.dim == 5
    n, m = mr.ring.basis_el(mr.offs[1]), mr.ring.basis_el(mr.offs[2])
    nm = multiply(mr.ring, n, m)           # = x inside the A corner
    assert nm == mr.ring.basis_el(mr.offs[0] + 1)
    assert multiply(mr.ring, m, n) == mr.ring.zero_el()


def test_build_ring_triangular_matches_path_algebra():
    _, ctx = triangular_context(QQ())
    mr = build_ring(ctx)
    assert mr.ring.dim == 3
    # basis order (A, N, B) gives literally the upper triangular table
    assert mr.ring.consts == path_a2(QQ()).consts


@pytest.mark.parametrize("n", [1, 2, 3])
def test_build_ring_upper_triangular3_is_the_matrix_ring(n):
    # the ring of the Peirce context of T3(k[x]/(x^n)) is that matrix ring
    # on the basis E11, E33, E13, E12, E23, E22, each times 1, x, ..,
    # x^{n-1}: E_ij x^a . E_kl x^b = E_il x^{a+b} when j = k and a + b < n
    F = QQ()
    _, ctx = upper_triangular3_context(F, n)
    assert validate_context(ctx) == []
    entries = [(1, 1), (3, 3), (1, 3), (1, 2), (2, 3), (2, 2)]
    d = 6 * n
    rows = [[0] * d for _ in range(d * d)]
    for s, (i, j) in enumerate(entries):
        for t, (k, l) in enumerate(entries):
            for a in range(n):
                for b in range(n - a):
                    if j == k:
                        u = entries.index((i, l))
                        rows[(s * n + a) * d + t * n + b][u * n + a + b] = 1
    assert build_ring(ctx).ring.consts == Mat(F, rows, d)


def test_functor_images_are_valid_quadruples():
    for ctx in _contexts():
        for x in [regular_module(ctx.A)]:
            assert validate_quadruple(t_a(ctx, x)) == []
            assert validate_quadruple(h_a(ctx, x)) == []
        for y in [regular_module(ctx.B)]:
            assert validate_quadruple(t_b(ctx, y)) == []
            assert validate_quadruple(h_b(ctx, y)) == []


def test_quadruple_to_module_round_trip():
    for ctx in _contexts():
        mr = build_ring(ctx)
        for q in [t_a(ctx, regular_module(ctx.A)), t_b(ctx, regular_module(ctx.B))]:
            v = quadruple_to_module(mr, q)
            assert validate_module(v) == []
            assert v.dim == q.dim
            q2 = module_to_quadruple(mr, v)
            assert (q2.x.dim, q2.y.dim) == (q.x.dim, q.y.dim)
            iso = is_isomorphic(v, quadruple_to_module(mr, q2))
            assert iso is not None and iso.intertwines() and iso.is_iso()


def test_regular_module_is_ta_plus_tb():
    for ctx in _contexts():
        mr = build_ring(ctx)
        reg = regular_quadruple(mr)
        split = direct_sum_quadruples(
            [t_a(ctx, regular_module(ctx.A)), t_b(ctx, regular_module(ctx.B))])
        assert validate_quadruple(split) == []
        iso = is_isomorphic(quadruple_to_module(mr, reg),
                            quadruple_to_module(mr, split))
        assert iso is not None


def test_u_a_section_of_t_a():
    _, ctx = glued_psi_context(QQ())
    x = regular_module(ctx.A)
    assert t_a(ctx, x).x is x             # U_A reads the A corner


def test_adjunction_dims_t_a():
    rng = random.Random(1)
    for ctx in _contexts():
        mr = build_ring(ctx)
        for _ in range(3):
            x = random_module(ctx.A, rng, max_free=1)
            v = t_b(ctx, random_module(ctx.B, rng, max_free=1))
            lhs = hom_dim(quadruple_to_module(mr, t_a(ctx, x)),
                          quadruple_to_module(mr, v))
            assert lhs == hom_dim(x, v.x)


def _corner_blocks(h: ModuleHom, q1, q2):
    """The four blocks of a ring map between the modules of q1 and q2,
    on X1 (+) Y1 -> X2 (+) Y2."""
    m, dx1, dx2 = h.mat, q1.x.dim, q2.x.dim
    return (m.block(0, dx1, 0, dx2), m.block(0, dx1, dx2, m.cols),
            m.block(dx1, m.rows, 0, dx2), m.block(dx1, m.rows, dx2, m.cols))


def test_ring_homs_of_quadruples_are_block_diagonal():
    # Green's equivalence: a ring map between quadruple modules is
    # block_diag(alpha, beta) with alpha A-linear and beta B-linear
    for ctx in _contexts():
        mr = build_ring(ctx)
        qs = [t_a(ctx, regular_module(ctx.A)), t_b(ctx, regular_module(ctx.B))]
        for q1 in qs:
            for q2 in qs:
                for h in hom_space(quadruple_to_module(mr, q1),
                                   quadruple_to_module(mr, q2)):
                    alpha, xy, yx, beta = _corner_blocks(h, q1, q2)
                    assert xy.is_zero() and yx.is_zero()
                    assert ModuleHom(q1.x, q2.x, alpha).intertwines()
                    assert ModuleHom(q1.y, q2.y, beta).intertwines()


def test_classify_projectives_triangular():
    _, ctx = triangular_context(QQ())
    mr = build_ring(ctx)
    projs = classify_projectives(ctx)
    dims = sorted((q.x.dim, q.y.dim) for q in projs)
    assert dims == [(1, 0), (1, 1)]
    assert sum(q.dim for q in projs) == mr.ring.dim
    for q in projs:
        assert is_projective(quadruple_to_module(mr, q))


def test_classify_projectives_two_cycle():
    _, ctx = two_cycle_context(QQ())
    mr = build_ring(ctx)
    projs = classify_projectives(ctx)
    assert sorted(q.dim for q in projs) == [2, 2]
    assert sum(q.dim for q in projs) == mr.ring.dim
    for q in projs:
        assert is_projective(quadruple_to_module(mr, q))


def test_classify_injectives_counts():
    _, ctx = triangular_context(QQ())
    mr = build_ring(ctx)
    injs = classify_injectives(ctx)
    assert len(injs) == 2
    for q in injs:
        assert validate_quadruple(q) == []


def test_z_functors_and_preconditions():
    ext, ctx = glued_psi_context(QQ())
    lamk = ext.inflate(regular_module(ext.Lam), name="k")
    q = z_a(ctx, lamk)
    assert validate_quadruple(q) == []
    with pytest.raises(ContextError):
        z_a(ctx, regular_module(ctx.A))   # I does not kill the regular module


def test_p_q_functors():
    _, ctx = triangular_context(QQ())
    p2 = t_b(ctx, regular_module(ctx.B))
    ker, _ = p_b(p2)
    assert ker.dim == 0                   # g is an isomorphism for T_B
    xq, _ = q_a(p2)
    assert xq.dim == p2.x.dim             # I = 0 here


@pytest.mark.parametrize("F", [QQ(), GF(7)], ids=["Q", "GF7"])
def test_p_a_is_right_adjoint_to_z_a(F):
    # a ring map Z_A(W) -> q is an A-map W -> X killed by the mate of f,
    # that is an A-map W -> P_A(q), for every W with I.W = 0
    nonzero = 0
    for make in (triangular_context, two_cycle_context, glued_psi_context,
                 arrow_ideal_context):
        ext, ctx = make(F)
        mr = build_ring(ctx)
        ws = [ext.inflate(w) for w in
              [regular_module(ext.Lam)] + simple_modules(ext.Lam)]
        qs = [t_a(ctx, regular_module(ctx.A)), t_b(ctx, regular_module(ctx.B)),
              t_lambda(ext, ctx, regular_module(ext.Lam)),
              h_a(ctx, regular_module(ctx.A)), regular_quadruple(mr),
              z_a(ctx, ws[0])]
        for w in ws:
            zw = quadruple_to_module(mr, z_a(ctx, w))
            for q in qs:
                dim = hom_dim(zw, quadruple_to_module(mr, q))
                assert dim == hom_dim(w, p_a(q)[0]), (make.__name__, q.name)
                nonzero += dim > 0
    assert nonzero


def test_quadruple_kernel_cokernel_commute_with_equivalence():
    # the kernel and cokernel of a ring map block_diag(alpha, beta) are
    # quadruples whose corners are those of alpha and of beta
    rng = random.Random(7)
    for ctx in _contexts():
        mr = build_ring(ctx)
        homs = []
        while not homs:       # most draws are zero or have no maps between them
            q1 = t_a(ctx, random_module(ctx.A, rng, max_free=1))
            q2 = t_a(ctx, random_module(ctx.A, rng, max_free=1))
            homs = hom_space(quadruple_to_module(mr, q1),
                             quadruple_to_module(mr, q2))
        h = homs[0]
        alpha, _, _, beta = _corner_blocks(h, q1, q2)
        corners = [ModuleHom(q1.x, q2.x, alpha), ModuleHom(q1.y, q2.y, beta)]
        for make in (kernel_of, cokernel_of):
            v, _ = make(h)
            q = module_to_quadruple(mr, v)
            assert validate_quadruple(q) == []
            for part, corner in zip((q.x, q.y), corners):
                assert is_isomorphic(part, make(corner)[0]) is not None


def test_t_lambda_of_regular_is_projective_column():
    ext, ctx = glued_psi_context(QQ())
    tq = t_lambda(ext, ctx, regular_module(ext.Lam))
    assert validate_quadruple(tq) == []
    assert (tq.x.dim, tq.y.dim) == (2, 1)
    col = t_a(ctx, regular_module(ctx.A))
    # T_Lambda(Lambda) = Lambda_psi e1 = T_A(A)
    mr = build_ring(ctx)
    iso = is_isomorphic(quadruple_to_module(mr, tq), quadruple_to_module(mr, col))
    assert iso is not None


def test_t_lambda_dim_formula():
    ext, ctx = glued_psi_context(QQ())
    rng = random.Random(3)
    for _ in range(3):
        x = random_module(ext.Lam, rng, max_free=2)
        tq = t_lambda(ext, ctx, x)
        assert tq.x.dim == x.dim + ext.ideal.dim * x.dim
        assert validate_quadruple(tq) == []


def test_tensor_over_ring_matches_oracle():
    rng = random.Random(5)
    for ctx in _contexts():
        mr = build_ring(ctx)
        rqs = regular_right_quadruples(mr)
        qs = [t_a(ctx, regular_module(ctx.A)), t_b(ctx, regular_module(ctx.B)),
              regular_quadruple(mr)]
        for rq in rqs:
            assert validate_quadruple(rq) == []
            assert validate_module(quadruple_to_module(opposite_ring(mr), rq)) == []
            for q in qs:
                assert tensor_over_ring(rq, q) == tensor_over_ring_oracle(mr, rq, q)


def test_regular_right_tensor_gives_module_dim():
    # e1L (x) V (+) e2L (x) V should recover dim V
    for ctx in _contexts():
        mr = build_ring(ctx)
        q = regular_quadruple(mr)
        r1, r2 = regular_right_quadruples(mr)
        assert tensor_over_ring(r1, q) + tensor_over_ring(r2, q) == q.dim


CATALOG = (triangular_context, two_cycle_context, glued_psi_context,
           arrow_ideal_context, wide_psi_context)


def _catalog_contexts(field):
    """The catalog contexts and their swaps (in the wide one, psi is not
    symmetric in its factors; in its swap, phi is not)."""
    for make in CATALOG:
        ctx = make(FIELDS[field]())[1]
        yield from (ctx, swap_context(ctx))
FIELDS = {"Q": QQ, "GF7": lambda: GF(7)}


@pytest.mark.parametrize("field", FIELDS)
def test_opposite_context_is_an_involution_and_validates(field):
    for ctx in _catalog_contexts(field):
        op = opposite_context(ctx)
        assert validate_context(op) == []
        assert opposite_context(op) is ctx
        # rebuilt from an uncached copy, the opposite of the opposite has
        # the original algebras and the original matrices
        copy = MoritaContext(op.A, op.B, op.M, op.N, op.phi, op.psi)
        back = opposite_context(copy)
        assert back.A is ctx.A and back.B is ctx.B
        for got, want in ((back.M, ctx.M), (back.N, ctx.N)):
            assert got.left is want.left and got.right is want.right
            assert got.left_acts == want.left_acts
            assert got.right_acts == want.right_acts
        assert back.phi.mat == ctx.phi.mat and back.psi.mat == ctx.psi.mat


@pytest.mark.parametrize("field", FIELDS)
def test_opposite_ring_is_the_ring_of_the_opposite_context(field):
    for ctx in _catalog_contexts(field):
        mr = build_ring(ctx)
        op = opposite_ring(mr)
        built = build_ring(opposite_context(ctx))
        assert op.ctx is built.ctx
        assert op.ring is opposite_algebra(mr.ring)
        # the block permutation: block k of op sits at op.offs[k], of built
        # at built.offs[k]
        dims = (ctx.A.dim, ctx.M.dim, ctx.N.dim, ctx.B.dim)
        perm = [0] * mr.ring.dim
        for k, d in enumerate(dims):
            for i in range(d):
                perm[op.offs[k] + i] = built.offs[k] + i

        def moved(v):
            out = [None] * len(v)
            for t, c in enumerate(v):
                out[perm[t]] = c
            return out

        n = mr.ring.dim
        for i in range(n):
            for j in range(n):
                assert (moved(op.ring.consts.row(i * n + j))
                        == built.ring.consts.row(perm[i] * n + perm[j]))
        assert moved(op.ring.unit) == built.ring.unit
        assert (moved(op.e1), moved(op.e2)) == (built.e1, built.e2)


@pytest.mark.parametrize("fixture", ["arrow_glue", "glued5", "nc_phi",
                                     "triangular", "two_cycle"])
def test_load_problem_validates_each_bimodule_once(count_calls, fixture):
    """The two bimodules of a context are validated as named bimodules and
    again as the context's M and N; the second time reads the verdict."""
    from gpmorita import bimodules
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures", f"{fixture}.json")
    verdicts = count_calls(bimodules.validate_bimodule)
    full = count_calls(bimodules._bimodule_violations)
    with open(path) as fh:
        ctx, = load_problem(json.load(fh)).contexts.values()
    assert (len(verdicts), len(full)) == (4, 2)
    verdict = bimodules.validate_bimodule(ctx.M)
    verdict.append("a caller's own list")
    assert bimodules.validate_bimodule(ctx.M) == [] and len(full) == 2


def test_build_ring_after_load_problem_does_not_revalidate(count_calls):
    from gpmorita.bimodules import validate_bimodule
    fixtures = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    contexts = []
    for path in sorted(glob.glob(os.path.join(fixtures, "*.json"))):
        with open(path) as fh:
            contexts += load_problem(json.load(fh)).contexts.values()
    assert contexts
    calls = count_calls(validate_bimodule)
    for ctx in contexts:
        build_ring(ctx)
        verdict = validate_context(ctx)
        verdict.append("a caller's own list")
        assert validate_context(ctx) == []
    assert calls == []


def test_validate_quadruple_runs_the_squares_once_per_quadruple(monkeypatch):
    # load_problem validates every quadruple of the file and check_conditions
    # validates the chosen one again; the second call reads the verdict
    from gpmorita.cli import main
    seen = []
    inner = morita._quadruple_violations

    def counted(q):
        seen.append(q.name)
        return inner(q)

    monkeypatch.setattr(morita, "_quadruple_violations", counted)
    main(["check-gp", os.path.join(FIXTURES, "triangular.json"),
          "--extension", "ext", "--context", "ctx", "--quadruple", "S2"])
    assert seen.count("S2") == 1
    assert len(seen) == len(set(seen))


def test_nc_tensor_check_validates_the_quadruple_once(monkeypatch):
    # the swap of a valid quadruple carries its empty verdict, so the
    # mirrored criterion does not run the squares on swap(PB) again
    from gpmorita.cli import main
    seen = []
    inner = morita._quadruple_violations

    def counted(q):
        seen.append(q.name)
        return inner(q)

    monkeypatch.setattr(morita, "_quadruple_violations", counted)
    main(["nc-tensor", "check", os.path.join(FIXTURES, "nc_phi.json"),
          "--context", "ctx", "--extension", "extB", "--quadruple", "PB"])
    assert seen.count("PB") == 1
    assert "swap(PB)" not in seen


def test_the_swap_carries_no_list_of_violations(count_calls):
    # the messages of a violated verdict name sides, so the swap of an
    # invalid quadruple is validated afresh, under the swapped labels
    _, ctx = glued_psi_context(QQ())
    q = t_a(ctx, regular_module(ctx.A))
    F = ctx.A.field
    bad = replace(q, f_full=q.f_full.scale(F.of_int(2)))
    assert validate_quadruple(bad) == ["first compatibility square fails"]
    assert validate_quadruple(swap_quadruple(bad)) == [
        "second compatibility square fails"]
    assert validate_quadruple(q) == []
    # the empty verdict is carried: the swap's squares are not run again
    squares = count_calls(morita._quadruple_violations)
    assert validate_quadruple(swap_quadruple(q)) == [] and squares == []


def test_a_replaced_quadruple_is_validated_afresh():
    # the verdict is not copied by dataclasses.replace, so a corrupted f on
    # a copy of a valid quadruple is still rejected
    _, ctx = glued_psi_context(QQ())
    q = t_a(ctx, regular_module(ctx.A))
    assert validate_quadruple(q) == []
    F = ctx.A.field
    bad = replace(q, f_full=q.f_full.scale(F.of_int(2)))
    assert validate_quadruple(bad) == ["first compatibility square fails"]
    assert validate_quadruple(q) == []
