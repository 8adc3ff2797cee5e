"""IR serialization for the persistent compile cache.

Entries are the pretty-printer's textual IR (``repro.ir.printer``) plus a
*preorder sid list*, so a loaded tree can be given back exact statement
identity — the one thing ``parse_program(dump(func))`` alone cannot
recover. Serialization is **fidelity-checked at write time**: an entry is
only produced if decoding it reproduces the original tree bit-for-bit
(sid-inclusive ``struct_hash`` *and* per-node expression dtypes), so any
IR feature the printer cannot yet represent degrades to "not cached",
never to a wrong compile.

Cross-process statement identity
--------------------------------

Statement ids are minted per process, so the *absolute* sids of two
processes that staged the same program differ even though the trees are
structurally identical. The cache therefore keys entries under a
**canonical** hash — sids renumbered ``#1..#n`` in preorder — and stores
the producing process's preorder sid list alongside the payload. A
consumer maps the stored sids onto *its own* tree's preorder sids
(:func:`decode_func`): statements that survived from the input keep the
consumer's identity (so schedules still address them, and sid-keyed
source spans re-attach automatically), while pass-introduced statements
get fresh local sids that cannot collide.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir import Func, bump_sid_counter, dump, fresh_sid, struct_hash
from ..ir.parser import parse_program

#: payload encoding version (also covered by the schema tag; this one is
#: checked explicitly so a mixed-version directory degrades to misses)
PAYLOAD_FORMAT = 1


def preorder_sids(func: Func) -> List[str]:
    """Every statement's sid, in preorder (the printer's emission
    order)."""
    out: List[str] = []

    def walk(s):
        out.append(s.sid)
        for c in s.children_stmts():
            walk(c)

    walk(func.body)
    return out


def canonical_key(func: Func) -> Tuple[str, List[str]]:
    """``(canonical sid-inclusive struct hash, preorder sids)``.

    The hash renumbers sids ``#1..#n`` in preorder before hashing, so it
    is invariant under the process-local absolute sid values while still
    distinguishing trees whose statement *identity structure* differs.
    """
    sids = preorder_sids(func)
    canon = {sid: f"#{i + 1}" for i, sid in enumerate(sids)}
    return struct_hash(func, include_sids=True, sid_map=canon), sids


def _expr_dtypes(func: Func) -> List[str]:
    """Every expression node's dtype, in deterministic preorder — the
    part of the tree ``struct_hash`` deliberately ignores but code
    generation reads."""
    out: List[str] = []

    def walk_expr(e):
        out.append(e.dtype.value)
        for c in e.children():
            walk_expr(c)

    def walk(s):
        for e in s.child_exprs():
            walk_expr(e)
        for c in s.children_stmts():
            walk(c)

    walk(func.body)
    return out


def same_tree(a: Func, b: Func) -> bool:
    """Whether two trees are interchangeable for every consumer: equal
    sid-inclusive ``struct_hash`` *and* equal expression dtypes (which
    hashing ignores but codegen depends on). This is the write-time
    fidelity gate, and the test behind identity entries."""
    return a is b or (
        struct_hash(a, include_sids=True) == struct_hash(b,
                                                         include_sids=True)
        and _expr_dtypes(a) == _expr_dtypes(b))


def _has_init_data(func: Func) -> bool:
    from ..ir import VarDef, collect_stmts

    return any(vd.init_data is not None for vd in collect_stmts(
        func.body, lambda s: isinstance(s, VarDef)))


def encode_func(func: Func) -> Optional[dict]:
    """Serialize ``func`` to a JSON-able payload, or None when the
    function cannot be represented faithfully (the caller should treat
    this as "uncacheable", not as an error)."""
    from ..runtime import metrics

    if _has_init_data(func):  # captured constant tensors: not in the
        metrics.DISK.add("ir_unserializable")  # textual format
        return None
    sids = preorder_sids(func)
    payload = {
        "fmt": PAYLOAD_FORMAT,
        "ir": dump(func),
        "sids": sids,
    }
    # Fidelity gate: decoding must reproduce the tree exactly.
    try:
        back = decode_func(payload, sid_map={s: s for s in sids},
                           bump_counter=False)
    except Exception:
        metrics.DISK.add("ir_unserializable")
        return None
    if not same_tree(back, func):
        metrics.DISK.add("ir_unserializable")
        return None
    return payload


def decode_func(payload: dict, sid_map: Optional[Dict[str, str]] = None,
                bump_counter: bool = True) -> Func:
    """Reconstruct a Func from :func:`encode_func`'s payload.

    ``sid_map`` translates stored sids to this process's sids; stored
    sids missing from the map get a fresh local sid. With no map, the
    stored sids are kept verbatim and the local sid counter is bumped
    past them so later ``fresh_sid()`` calls cannot collide.
    """
    if payload.get("fmt") != PAYLOAD_FORMAT:
        raise ValueError(f"unknown payload format {payload.get('fmt')!r}")
    func = parse_program(payload["ir"])
    stored = payload["sids"]
    nodes: List = []

    def walk(s):
        nodes.append(s)
        for c in s.children_stmts():
            walk(c)

    walk(func.body)
    if len(nodes) != len(stored):
        raise ValueError(
            f"sid list length {len(stored)} does not match parsed tree "
            f"({len(nodes)} statements)")
    if sid_map is None:
        numeric = 0
        for node, sid in zip(nodes, stored):
            node.sid = sid
            if sid.startswith("#") and sid[1:].isdigit():
                numeric = max(numeric, int(sid[1:]))
        if bump_counter:
            bump_sid_counter(numeric)
    else:
        for node, sid in zip(nodes, stored):
            mapped = sid_map.get(sid)
            node.sid = mapped if mapped is not None else fresh_sid()
    return func


def encode_entry(func: Func, input_sids: List[str],
                 anchor: Optional[Func] = None) -> Optional[dict]:
    """A complete cache entry: the compiled output plus the *input*
    tree's preorder sids (recorded so a consumer can translate).

    When the output is the ``anchor`` (the input tree the entry is keyed
    under) all over again, the entry is an *identity marker* — no
    payload, just the input's statement count — and a consumer gets its
    own anchor tree back without decoding anything.
    """
    if anchor is not None and same_tree(func, anchor):
        return {"fmt": PAYLOAD_FORMAT, "same": True, "n": len(input_sids)}
    payload = encode_func(func)
    if payload is None:
        return None
    return {"fmt": PAYLOAD_FORMAT, "input_sids": input_sids,
            "func": payload}


def _input_sid_map(entry: dict,
                   current_input_sids: List[str]) -> Dict[str, str]:
    stored_input = entry["input_sids"]
    if len(stored_input) != len(current_input_sids):
        raise ValueError("input sid list length mismatch")
    return dict(zip(stored_input, current_input_sids))


def decode_entry(entry: dict, current_input_sids: List[str],
                 anchor: Optional[Func] = None) -> Func:
    """Decode a cache entry against the consumer's input tree.

    ``current_input_sids`` is the consumer's own preorder sid list for
    the (structurally identical) input; stored input sids map onto it
    positionally, which is exact because the entry was keyed under the
    canonical hash of that same structure. An identity marker resolves
    to ``anchor``, the consumer's input tree itself.
    """
    if entry.get("same"):
        if entry.get("fmt") != PAYLOAD_FORMAT or anchor is None \
                or entry.get("n") != len(current_input_sids):
            raise ValueError("identity marker does not fit this input")
        return anchor
    return decode_func(entry["func"],
                       sid_map=_input_sid_map(entry, current_input_sids))


def encode_record(funcs: Dict[str, Func], input_sids: List[str],
                  meta: dict) -> Optional[dict]:
    """One entry holding several outputs derived from one input (the
    product of ``grad()``: forward and backward) plus JSON metadata.
    Every payload passes :func:`encode_func`'s fidelity gate; None when
    any of them cannot be represented."""
    payloads = {}
    for name, func in funcs.items():
        payloads[name] = encode_func(func)
        if payloads[name] is None:
            return None
    return {"fmt": PAYLOAD_FORMAT, "input_sids": input_sids,
            "funcs": payloads, "meta": meta}


def decode_record(entry: dict, current_input_sids: List[str]
                  ) -> Tuple[Dict[str, Func], dict]:
    """``(funcs, meta)`` of an :func:`encode_record` entry, every func
    translated onto the consumer's input sids like a single-output
    entry."""
    sid_map = _input_sid_map(entry, current_input_sids)
    funcs = {name: decode_func(payload, sid_map=sid_map)
             for name, payload in entry["funcs"].items()}
    return funcs, entry["meta"]
