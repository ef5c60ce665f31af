"""Twenty-nine layering rules of the package, checked on its source.

Only `linalg` sees matrix entries: no other module reads or writes a
`.data` attribute or the integer storage behind it, so the storage can
change in one file.  Inside `linalg` the kernels compute on that integer
storage, never through a per-element `Field` call, and the Morita layers
(`morita`, `trivext`, `engine`) build their maps from whole matrices, with
no per-element `Field` arithmetic.  The Morita layers and the builders
beside them (`morita`, `trivext`, `catalog`, `nctensor`) act by a span
with one `acts_of`, never by an `act_of` per element in a loop, and no
code reads a balanced map one value at a time (`BalancedMap.value`): the
values are the rows of its matrix.  An algebra's product is one n^2 x n
matrix: the algebra and ring builders (`algebra`, `morita`, `trivext`,
`nctensor`) make no per-element `Field` call, and no module reads a nested
`.mul` table; the idempotent search (`idempotents`) multiplies whole
matrices and never calls `multiply` on two single elements.  The
independent checker `verify` imports only the shared ground (linear
algebra, modules, complex windows, algebras and the certificate types),
never a builder module such as `bimodules` or `homology`, and it checks
a periodic window with its own code, not with the builder's period
helpers in `complexes`.  The engine decides semi-weak compatibility over
the context ring alone: it never reads a ring module back as a quadruple
(`module_to_quadruple`, `quadruple_bases`), which a second, corner-side
route to the same verdict would need.  Nor does it compute psi (x) 1
(`psi_tensor_block`) or descend a map to a tensor quotient
(`factor_through`) of its own: tau and sigma^0 are read off the g of the
T quadruples.  The engine searches for no isomorphism (`is_isomorphic`),
which leaves the certifier as the search's last caller, and
`build_total_resolution` proves no window over the context ring whole
(`validate_complex`, `total_exactness`): the laws, maps and projectivity
of T are proven on its quadruples, at the size of the corners.  The
builders of windows (`complexes`, `engine`, `gpcert`) share repeated term
instances through `complexes.per_instance` alone,
with no `id()`-keyed table of their own.  Vectors are expressed in a stacked basis of
flattened maps through one batched `coordinates` call, never through a
`solve_left` per vector in a loop, which row-reduces the same basis once
per call.  Maps are factored
through a quotient projection (a `kernel_basis`) with `factor_through`,
never with `solve`, which stacks and row-reduces the projection again.
M and N are restricted to Lambda in one function, `trivext.lam_bimodules`,
which keeps them on the context, so the memoized tensor products over
M|Lambda and N|Lambda are found again; and no function takes an optional
tensor product that its caller may have built, since `tensor_module`
returns the one it built.  Every derived value kept on an instance goes
through the one memo, `algebra.memo`: no other code reads or writes an
instance's `_cache`.  Each lift of the horseshoe is one
`solve_module_hom` system: `complexes.horseshoe` calls no `solve`,
`solve_left`, `row_space` or `left_kernel` of its own.  A module's record
of its direct summands is written in one place, `modules.direct_sum`, and
read in one, `modules.direct_summands`, which answers the record that
`direct_sum` stores as checked (it builds each action as the block
diagonal of the summands') and checks any other against the module's
actions before any caller answers from the summands.  No
function takes a seed, and every random draw comes from one fixed
stream: each `random.Random(` call takes the literal 0 (`catalog`, which
draws with the `random.Random` its callers pass, is not scanned), so the
isomorphism search, the one randomized search whose result is printed,
prints the same isomorphism on every run; projective summands are split
off without a search.  An algebra has one regular module: only
`modules.regular_module`, which is memoized on the algebra, builds an
`FDModule` from `lmul_mats()`, so every Hom into A hits the same memo
entries.  The unmemoized body of `hom_space` is
reached from one place, where no entry may be kept: `modules.hom_space`
itself, for the pieces of a sum into a target other than A.
One number, `homology.gorenstein_dimension`, decides the certifier's
path: `gpcert` asks no other proof of it (`global_dimension`,
`is_self_injective`), and `complexes` reads the self-injective dimension
alone, never a Frobenius form of its own.  The primitive idempotents of an
algebra are found in one place, `homology._idempotents`, from which
`_block_reps` builds the projective of each block, and their lifting
stops at its fixed point: no module names a radical's `nilpotency_index`.
What an algebra was built from is recorded by its builder and read by
`_idempotents` alone:
a ring's context is written by `morita.build_ring`, and an opposite's
original by `algebra.opposite_algebra`.  A `Mat` is minted in one place,
`linalg._wrap`, which hands out each field's shared empty matrices, and
a `Field` is made only in `fields`, one instance per spec.  A balanced
tensor quotient is formed in one place, `bimodules.tensor_module`, and a
window is tensored termwise in one, `complexes.tensor_window`.
"""
from __future__ import annotations

import ast
import glob
import os
import re

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src",
                       "gpmorita")
CHECKER_IMPORTS = {"__future__", "linalg", "modules", "complexes", "algebra",
                   "gpcert"}


def _tree(name: str) -> ast.AST:
    path = os.path.join(PACKAGE, name)
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


# `Mat.data` and the private storage it is read from
ENTRY_ATTRS = {"data", "_ints", "_den"}


def test_only_linalg_touches_matrix_entries():
    hits = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        name = os.path.basename(path)
        if name == "linalg.py":
            continue
        hits += [f"{name}:{node.lineno}" for node in ast.walk(_tree(name))
                 if isinstance(node, ast.Attribute) and node.attr in ENTRY_ATTRS]
    assert not hits, f"matrix entries outside linalg: {hits}"


FIELD_ELEMENT_OPS = {"add", "sub", "neg", "mul", "inv", "div", "is_zero", "zero",
                     "one"}


def _is_field(node: ast.AST) -> bool:
    """`F`, `field` or a `.field` attribute."""
    return (isinstance(node, ast.Name) and node.id in ("F", "field")) or \
        (isinstance(node, ast.Attribute) and node.attr == "field")


def test_linalg_makes_no_per_element_field_call():
    hits = [f"linalg.py:{node.lineno}" for node in ast.walk(_tree("linalg.py"))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in FIELD_ELEMENT_OPS and _is_field(node.func.value)]
    assert not hits, f"per-element Field calls in linalg: {hits}"


# the per-element arithmetic of a Field; `is_zero`, `zero` and `one` only
# test or name an element
FIELD_ARITHMETIC = {"add", "sub", "mul", "div", "inv", "neg"}


def test_morita_layers_make_no_per_element_field_arithmetic():
    hits = [f"{name}:{node.lineno}"
            for name in ("morita.py", "trivext.py", "engine.py")
            for node in ast.walk(_tree(name))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in FIELD_ARITHMETIC and _is_field(node.func.value)]
    assert not hits, f"per-element Field arithmetic in the Morita layers: {hits}"


# the layers whose products are whole-matrix operations on `Algebra.consts`
PRODUCT_TABLE_LAYERS = ("algebra.py", "morita.py", "trivext.py", "nctensor.py")
# a Field's per-element arithmetic and its zero test
FIELD_PER_ELEMENT = {"add", "sub", "mul", "neg", "inv", "div", "is_zero"}


def test_product_tables_are_whole_matrices():
    """No per-element `Field` call in the algebra and ring builders, and no
    read of a nested `.mul` table anywhere: every product is read from the
    one n^2 x n matrix `consts`.  A `.mul` attribute that is called is a
    Field's product, which only the other rule limits."""
    hits = [f"{name}:{node.lineno}"
            for name in PRODUCT_TABLE_LAYERS
            for node in ast.walk(_tree(name))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in FIELD_PER_ELEMENT and _is_field(node.func.value)]
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        name = os.path.basename(path)
        tree = _tree(name)
        called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
        hits += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "mul"
                 and id(node) not in called]
    assert not hits, f"per-element products outside the product table: {hits}"


def test_idempotents_multiply_no_single_elements():
    """Powers, Lagrange idempotents, lifting and the idempotent check are
    products with R_x matrices and `consts`, not a `multiply` of two
    elements (as the tests' `element_products.multiply` is)."""
    hits = [f"idempotents.py:{node.lineno}"
            for node in ast.walk(_tree("idempotents.py"))
            if isinstance(node, ast.Call)
            and "multiply" in (getattr(node.func, "attr", None),
                               getattr(node.func, "id", None))]
    assert not hits, f"per-element products in idempotents: {hits}"


def test_checker_imports_only_the_shared_ground():
    imported = set()
    for node in ast.walk(_tree("verify.py")):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported <= CHECKER_IMPORTS, sorted(imported - CHECKER_IMPORTS)


# the builder's period helpers, which `verify._window_periodic` duplicates
BUILDER_PERIOD_HELPERS = {"one_period", "window_period"}


def test_checker_keeps_its_own_period_check():
    hits = []
    for node in ast.walk(_tree("verify.py")):
        if isinstance(node, ast.ImportFrom):
            hits += [f"verify.py:{node.lineno}" for alias in node.names
                     if alias.name in BUILDER_PERIOD_HELPERS]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name in BUILDER_PERIOD_HELPERS:
                hits.append(f"verify.py:{node.lineno}")
    assert not hits, f"the checker uses the builder's period helper: {hits}"


# the readings of a ring module in its corners, which the engine does not use
CORNER_READINGS = {"module_to_quadruple", "quadruple_bases"}


def _engine_uses(names) -> list[str]:
    """The lines of engine.py that import or name one of names."""
    hits = []
    for node in ast.walk(_tree("engine.py")):
        if isinstance(node, ast.ImportFrom):
            hits += [f"engine.py:{node.lineno}" for alias in node.names
                     if alias.name in names]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name in names:
                hits.append(f"engine.py:{node.lineno}")
    return hits


def test_engine_reads_no_ring_module_as_a_quadruple():
    hits = _engine_uses(CORNER_READINGS)
    assert not hits, f"the engine reads a ring module in its corners: {hits}"


# psi (x) 1 and its descent to the tensor quotient, which the g of the T
# quadruples already holds
OWN_PSI_TENSOR = {"psi_tensor_block", "factor_through"}


def test_engine_reads_psi_tensor_one_off_the_t_quadruples():
    hits = _engine_uses(OWN_PSI_TENSOR)
    assert not hits, f"the engine computes psi (x) 1 of its own: {hits}"


def test_the_engine_searches_for_no_isomorphism():
    # the certifier is the last caller of the bounded search
    hits = _engine_uses({"is_isomorphic"})
    assert not hits, f"the engine searches for an isomorphism: {hits}"


# the proofs of a whole window's module laws, module maps and projectivity,
# which the assembly gives at the size of the corners instead
RING_WINDOW_PROOFS = {"validate_complex", "total_exactness"}


def test_the_assembly_proves_no_ring_window_whole():
    fn = next(n for n in ast.walk(_tree("engine.py"))
              if isinstance(n, ast.FunctionDef) and n.name == "build_total_resolution")
    hits = [f"engine.py:{c.lineno}" for c in ast.walk(fn)
            if isinstance(c, ast.Call) and _called(c) in RING_WINDOW_PROOFS]
    assert not hits, f"the assembly proves a window over the ring whole: {hits}"


def test_repeated_window_terms_are_shared_by_one_helper():
    hits = [f"{name}:{call.lineno}"
            for name in ("complexes.py", "engine.py", "gpcert.py")
            for call in ast.walk(_tree(name)) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name) and call.func.id == "id"]
    assert not hits, f"term instances keyed by id(): {hits}"


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
          ast.DictComp, ast.GeneratorExp)

# the actions of single elements, which `FDModule.acts_of` stacks for a span
ELEMENT_ACTIONS = {"act_of", "left_act_of", "right_act_of"}


def _calls_method(node: ast.AST, names) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in names)


def test_morita_layers_act_by_spans_not_elements():
    hits = {f"{name}:{call.lineno}"
            for name in ("morita.py", "trivext.py", "catalog.py", "nctensor.py")
            for loop in ast.walk(_tree(name)) if isinstance(loop, _LOOPS)
            for call in ast.walk(loop) if _calls_method(call, ELEMENT_ACTIONS)}
    assert not hits, f"an action per element in a loop: {sorted(hits)}"


def test_no_balanced_map_is_read_value_by_value():
    hits = [f"{os.path.basename(path)}:{node.lineno}"
            for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
            for node in ast.walk(_tree(os.path.basename(path)))
            if _calls_method(node, {"value"})]
    assert not hits, f"BalancedMap.value calls: {hits}"


def _is_stacked_flatten(node: ast.AST) -> bool:
    """`Mat.vstack([... .flatten() ...])`."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "vstack"
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "Mat"
            and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "flatten"
                    for arg in node.args for n in ast.walk(arg)))


def _is_solve_left(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Name) and f.id == "solve_left") or \
        (isinstance(f, ast.Attribute) and f.attr == "solve_left")


def test_no_solve_left_per_vector_in_a_stacked_basis():
    hits = set()
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        name = os.path.basename(path)
        for fn in ast.walk(_tree(name)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stacked = {t.id for n in ast.walk(fn)
                       if isinstance(n, ast.Assign) and _is_stacked_flatten(n.value)
                       for t in n.targets if isinstance(t, ast.Name)}
            hits.update(f"{name}:{call.lineno}"
                        for loop in ast.walk(fn) if isinstance(loop, _LOOPS)
                        for call in ast.walk(loop)
                        if _is_solve_left(call) and call.args
                        and isinstance(call.args[0], ast.Name)
                        and call.args[0].id in stacked)
    assert not hits, f"solve_left per vector in a stacked basis: {sorted(hits)}"


# `solve` against a projection that is not known to be canonical, with the
# reason it must stay a `solve`
SOLVE_ON_PROJ_ALLOWED = {
    # the cokernel projection of a witness step comes from a report file,
    # outside input that may not be a kernel basis; a tampered one must be
    # reported as an input error, not raise NonCanonicalBasis
    ("jsonio.py", "_induced_acts"),
}


def _is_projection(node: ast.AST) -> bool:
    """A `proj` or `*_proj` name, or a `.proj` attribute."""
    if isinstance(node, ast.Name):
        return node.id == "proj" or node.id.endswith("_proj")
    return isinstance(node, ast.Attribute) and node.attr == "proj"


def test_no_solve_against_a_quotient_projection():
    hits = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        name = os.path.basename(path)
        for fn in ast.walk(_tree(name)):
            if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or (name, fn.name) in SOLVE_ON_PROJ_ALLOWED):
                continue
            hits += [f"{name}:{call.lineno}" for call in ast.walk(fn)
                     if isinstance(call, ast.Call)
                     and isinstance(call.func, ast.Name) and call.func.id == "solve"
                     and call.args and _is_projection(call.args[0])]
    assert not hits, f"solve against a quotient projection: {sorted(set(hits))}"


# the one function that restricts M and N along the inclusion Lambda -> A
LAM_RESTRICTION = ("trivext.py", "lam_bimodules")


def _restricts_along_the_inclusion(node: ast.AST) -> bool:
    """`restrict_left(...)` or `restrict_right(...)` with an `incl_rows`
    attribute as the embedding."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
    if name not in ("restrict_left", "restrict_right"):
        return False
    emb = node.args[1] if len(node.args) > 1 else next(
        (k.value for k in node.keywords if k.arg == "emb_rows"), None)
    return isinstance(emb, ast.Attribute) and emb.attr == "incl_rows"


def test_m_and_n_are_restricted_to_lambda_in_one_function():
    hits, inside = [], 0
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        name = os.path.basename(path)
        tree = _tree(name)
        allowed = {id(n) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef)
                   and (name, fn.name) == LAM_RESTRICTION
                   for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if _restricts_along_the_inclusion(node):
                if id(node) in allowed:
                    inside += 1
                else:
                    hits.append(f"{name}:{node.lineno}")
    assert not hits, f"M or N restricted to Lambda outside lam_bimodules: {hits}"
    assert inside == 2, "lam_bimodules restricts M and N once each"


def test_no_function_takes_an_optional_tensor_product():
    hits = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        name = os.path.basename(path)
        for fn in ast.walk(_tree(name)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            hits += [f"{name}:{fn.name}({a.arg})"
                     for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
                     if a.annotation is not None
                     and ast.unparse(a.annotation).replace(" ", "") in
                     ("TensorModule|None", "None|TensorModule",
                      "Optional[TensorModule]")]
    assert not hits, f"optional tensor parameters: {hits}"


# the one function that reads and writes the per-instance memo storage
MEMO = ("algebra.py", "memo")


def test_only_the_memo_touches_cache():
    hits = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        name = os.path.basename(path)
        tree = _tree(name)
        allowed = {id(n) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and (name, fn.name) == MEMO
                   for n in ast.walk(fn)}
        hits += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "_cache"
                 and id(node) not in allowed]
    assert not hits, f"_cache read or written outside the memo: {hits}"


# the linear algebra a lift through images and kernels would call
KERNEL_BOOKKEEPING = {"solve", "solve_left", "row_space", "left_kernel"}


def test_horseshoe_solves_each_lift_as_one_system():
    hits = [f"complexes.py:{call.lineno}"
            for fn in ast.walk(_tree("complexes.py"))
            if isinstance(fn, ast.FunctionDef) and fn.name == "horseshoe"
            for call in ast.walk(fn) if isinstance(call, ast.Call)
            and (call.func.id if isinstance(call.func, ast.Name)
                 else getattr(call.func, "attr", None)) in KERNEL_BOOKKEEPING]
    assert not hits, f"kernel bookkeeping in the horseshoe: {hits}"


def _enclosing(tree: ast.AST, name: str) -> dict:
    """id(node) -> (file, name of the outermost function holding it)."""
    inside = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for n in ast.walk(fn):
                inside.setdefault(id(n), (name, fn.name))
    return inside


# where a module's record of its summands is written, and where it is read
SUMMANDS_WRITER = ("modules.py", "direct_sum")
SUMMANDS_READER = ("modules.py", "direct_summands")


def test_the_summands_record_has_one_writer_and_one_reader():
    hits = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        name = os.path.basename(path)
        tree = _tree(name)
        inside = _enclosing(tree, name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "summands":
                where = (SUMMANDS_WRITER if isinstance(node.ctx, ast.Store)
                         else SUMMANDS_READER)
                if inside.get(id(node)) != where:
                    hits.append(f"{name}:{node.lineno}")
    assert not hits, f"summands written or read outside their one place: {hits}"


def test_nothing_takes_a_seed_and_every_random_stream_is_random_0():
    hits = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        name = os.path.basename(path)
        if name == "catalog.py":
            continue
        for node in ast.walk(_tree(name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                if "seed" in {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}:
                    hits.append(f"{name}:{node.lineno} takes a seed")
            elif isinstance(node, ast.Call) and _called(node) == "Random":
                given = node.args + [k.value for k in node.keywords]
                if [ast.dump(g) for g in given] != ["Constant(value=0)"]:
                    hits.append(f"{name}:{node.lineno} draws from another "
                                f"stream than Random(0)")
    assert not hits, hits


def _called(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


# the one builder of an algebra's regular module
REGULAR_BUILDER = ("modules.py", "regular_module")


def test_only_regular_module_builds_the_regular_module():
    hits = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        name = os.path.basename(path)
        for fn in ast.walk(_tree(name)):
            if not isinstance(fn, ast.FunctionDef) or (name, fn.name) == REGULAR_BUILDER:
                continue
            calls = {_called(c) for c in ast.walk(fn) if isinstance(c, ast.Call)}
            if {"FDModule", "lmul_mats"} <= calls:
                hits.append(f"{name}:{fn.lineno} {fn.name}")
    assert not hits, f"an FDModule built from lmul_mats() elsewhere: {hits}"


# where the unmemoized hom_space body may be called
UNWRAPPED_HOM = {("modules.py", "hom_space")}


def test_the_unmemoized_hom_space_is_reached_from_one_place():
    seen = set()
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        name = os.path.basename(path)
        tree = _tree(name)
        inside = _enclosing(tree, name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and _called(node) == "unwrap"
                    and any(isinstance(a, ast.Name) and a.id == "hom_space"
                            for a in node.args)
                    or isinstance(node, ast.Attribute) and node.attr == "__wrapped__"
                    and isinstance(node.value, ast.Name) and node.value.id == "hom_space"):
                seen.add(inside.get(id(node), (name, None)))
    assert seen == UNWRAPPED_HOM, f"the unmemoized hom_space reached from {sorted(seen)}"


# the proofs of a Gorenstein dimension that `homology` makes, per module
# that must not make them itself
OWN_DIMENSION_PROOFS = {"gpcert.py": {"global_dimension", "is_self_injective"},
                        "complexes.py": {"frobenius_form"}}


def test_one_gorenstein_dimension_decides():
    hits = []
    for name, names in OWN_DIMENSION_PROOFS.items():
        for node in ast.walk(_tree(name)):
            if isinstance(node, ast.ImportFrom):
                hits += [f"{name}:{node.lineno}" for alias in node.names
                         if alias.name in names]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                if (node.id if isinstance(node, ast.Name) else node.attr) in names:
                    hits.append(f"{name}:{node.lineno}")
    assert not hits, f"a proof of the dimension outside homology: {hits}"


# the one caller of the idempotent search, and the bound it no longer needs
IDEMPOTENT_CALLER = ("homology.py", "_idempotents")
LIFTING_BOUND = "nilpotency_index"


def test_only_idempotents_finds_idempotents():
    hits = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        name = os.path.basename(path)
        tree = _tree(name)
        inside = _enclosing(tree, name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and _called(node) == "primitive_idempotents"
                    and inside.get(id(node)) != IDEMPOTENT_CALLER):
                hits.append(f"{name}:{node.lineno} calls primitive_idempotents")
            named = (node.id if isinstance(node, ast.Name)
                     else node.attr if isinstance(node, ast.Attribute)
                     else node.name if isinstance(node, (ast.FunctionDef, ast.alias))
                     else None)
            if named == LIFTING_BOUND:
                hits.append(f"{name}:{getattr(node, 'lineno', '?')} names {named}")
    assert not hits, f"an idempotent search outside _idempotents, or its bound: {hits}"


# the record of what an algebra was built from: attribute -> (writer, reader)
PARTS_RECORDS = {
    "morita_context": (("morita.py", "build_ring"), ("homology.py", "_idempotents")),
    "opposite_of": (("algebra.py", "opposite_algebra"), ("homology.py", "_idempotents")),
}


def test_the_parts_records_have_one_writer_and_one_reader():
    hits = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        name = os.path.basename(path)
        tree = _tree(name)
        inside = _enclosing(tree, name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in PARTS_RECORDS:
                writer, reader = PARTS_RECORDS[node.attr]
                where = writer if isinstance(node.ctx, ast.Store) else reader
                if inside.get(id(node)) != where:
                    hits.append(f"{name}:{node.lineno} {node.attr}")
    assert not hits, f"a parts record written or read outside its one place: {hits}"


# the one place a Mat is minted, which hands out the shared empty matrices
MAT_MINT = ("linalg.py", "_wrap")


def test_matrices_are_minted_in_one_place_and_fields_only_in_fields():
    """`object.__new__(Mat)` (or any `__new__` naming `Mat`) is called only
    in `linalg._wrap`, so no matrix with no rows or no columns escapes the
    field's shared instance.  No module but `fields` calls `Field(...)` or
    a `__new__` naming `Field`: elsewhere a field is `QQ()` or `GF(p)`,
    the one instance per spec."""
    hits = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        name = os.path.basename(path)
        tree = _tree(name)
        inside = _enclosing(tree, name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            new = _called(node) == "__new__"
            named = {n.id for n in ([node.func.value, *node.args] if new
                                    else [node.func]) if isinstance(n, ast.Name)}
            if new and "Mat" in named and inside.get(id(node)) != MAT_MINT:
                hits.append(f"{name}:{node.lineno} mints a Mat")
            if name != "fields.py" and "Field" in named:
                hits.append(f"{name}:{node.lineno} makes a Field")
    assert not hits, f"a Mat minted outside _wrap, or a Field outside fields: {hits}"


# the one builder of a balanced tensor quotient and the one termwise tensor
# of a window, and the names of the builders they replaced
TENSOR_QUOTIENT = ("bimodules.py", "tensor_module")
WINDOW_TENSOR = ("complexes.py", "tensor_window")
TENSOR_CALLS = {"tensor_module", "tensor_functor_hom"}
WINDOW_PARTS = {"terms", "diffs", "term", "diff"}
REPLACED_TENSORS = ("balanced_tensor_space", "TensorSpace", "tensor_complex_data",
                    "_tensor_window", "compose_compat", "hom_functor_hom")


def _calls(node: ast.AST, names) -> bool:
    return any(isinstance(n, ast.Call) and _called(n) in names for n in ast.walk(node))


def _identifiers(text: str) -> set[str]:
    """Every word of a source text, comments and docstrings included."""
    return set(re.findall(r"\w+", text))


def test_one_tensor_quotient_and_one_window_tensor():
    """Only `bimodules.tensor_module` forms a tensor quotient,
    `quotient_maps` of an `intertwining_system` (called inline or through
    a name bound to one), and only `complexes.tensor_window` tensors a
    window termwise: no loop, comprehension or lambda elsewhere calls
    `tensor_module` or `tensor_functor_hom` and reads a window's terms or
    differentials.  The builders they replaced are named nowhere."""
    hits = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        hits += [f"{name} names {gone}" for gone in REPLACED_TENSORS
                 if gone in _identifiers(text)]
        tree = ast.parse(text, path)
        inside = _enclosing(tree, name)
        relations = {t.id for n in ast.walk(tree) if isinstance(n, ast.Assign)
                     and _calls(n.value, {"intertwining_system"})
                     for t in n.targets if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            where = inside.get(id(node))
            if (isinstance(node, ast.Call) and _called(node) == "quotient_maps"
                    and where != TENSOR_QUOTIENT
                    and (_calls(node, {"intertwining_system"})
                         or any(isinstance(n, ast.Name) and n.id in relations
                                for a in node.args for n in ast.walk(a)))):
                hits.append(f"{name}:{node.lineno} forms a tensor quotient")
            if (isinstance(node, (*_LOOPS, ast.Lambda)) and where != WINDOW_TENSOR
                    and _calls(node, TENSOR_CALLS)
                    and any(isinstance(n, ast.Attribute) and n.attr in WINDOW_PARTS
                            for n in ast.walk(node))):
                hits.append(f"{name}:{node.lineno} tensors a window termwise")
    assert not hits, f"a second tensor quotient or window tensor: {hits}"
