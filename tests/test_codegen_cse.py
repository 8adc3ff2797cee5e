"""The C code generator's per-block CSE computes every node's structural
key once, bottom-up, as an interned int. These tests pin that this is
the same partition ``Expr.key()`` tuples give, and that the emitted
source did not move by a byte."""

import hashlib

import pytest

from repro.ad import grad
from repro.codegen.ccode import CCodegen
from repro.ir import collect_stmts
from repro.pipeline import compile_ir
from repro.workloads import longformer, softras, subdivnet

#: (length, blake2b-8 digest, number of ``cse_`` mentions) of the code
#: after the prelude of the generated backward translation units, taken
#: with the quadratic ``e.key()``-per-node implementation this one replaced
#: (the prelude declares only what a unit calls; see test_c_prelude.py)
PINNED = {
    "softras": (8644, "d50107d00b90184b", 146),
    "longformer": (6272, "d7d69f6f51de21bf", 16),
    "subdivnet": (4631, "82221f56a62f33d3", 18),
}
REQUIRES = {"softras": ["verts"], "longformer": ["q", "k", "v"],
            "subdivnet": ["e", "w"]}
MODULES = {"softras": softras, "longformer": longformer,
           "subdivnet": subdivnet}


def _backward(name):
    gp = grad(MODULES[name].make_program(), requires=REQUIRES[name])
    return compile_ir(gp.bwd, backend="c")


@pytest.mark.parametrize("name", sorted(PINNED))
def test_backward_source_is_byte_identical(name):
    gen = CCodegen(_backward(name))
    src = gen.generate()[len(gen.prelude()):]
    digest = hashlib.blake2b(src.encode(), digest_size=8).hexdigest()
    assert (len(src), digest, src.count("cse_")) == PINNED[name]


def test_interned_keys_partition_like_expr_key():
    func = _backward("softras")
    gen = CCodegen(func)
    nodes = []

    def walk(e):
        nodes.append(e)
        for c in e.children():
            walk(c)

    for s in collect_stmts(func.body, lambda _s: True):
        for e in s.child_exprs():
            walk(e)
    assert len(nodes) > 1000
    by_tuple, by_id = {}, {}
    for e in nodes:
        kid = gen._cse_key(e)
        assert by_tuple.setdefault(e.key(), kid) == kid
        assert by_id.setdefault(kid, e.key()) == e.key()


def test_each_node_is_keyed_once(monkeypatch):
    # the walk derives a parent's key from its children's: one shallow
    # key per visited node, and Expr.key() (whole-subtree tuples) is
    # not called at all
    from repro.ir import expr as E

    func = _backward("softras")
    calls = {"shallow": 0}
    real = CCodegen._key_id

    def counting(self, e, kids):
        calls["shallow"] += 1
        return real(self, e, kids)

    def no_key(self):  # pragma: no cover - must not run
        raise AssertionError("Expr.key() called during C codegen")

    monkeypatch.setattr(CCodegen, "_key_id", counting)
    for cls in (E.Const, E.Var, E.Load, E.BinOp, E.LNot, E.IfExpr,
                E.Cast, E.Intrinsic):
        monkeypatch.setattr(cls, "key", no_key)
    src = CCodegen(func).generate()
    assert src.count("cse_") == PINNED["softras"][2]
    visited = 0
    for s in collect_stmts(func.body, lambda _s: True):
        if type(s).__name__ in ("Store", "ReduceTo"):
            stack = [s.expr, *s.indices]
            while stack:
                e = stack.pop()
                visited += 1
                stack.extend(e.children())
    # walked once per block; pexpr only re-keys the few shape
    # expressions it meets outside the walked trees
    assert visited <= calls["shallow"] <= 1.5 * visited
