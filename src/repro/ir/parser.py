"""Parser for the pretty-printer's output format.

``parse_program(dump(func)) == func`` up to statement ids: the textual IR
round-trips, which the test suite uses to pin the printer format and to
load hand-written IR fixtures. Reductions printed as ``x = min(x, e)``
parse back as Stores; run ``repro.passes.make_reduction`` for semantic
round-trips of min/max reductions.
"""

from __future__ import annotations

import re
from typing import List, Optional

from ..errors import InvalidProgram
from . import expr as E
from . import stmt as S
from .dtype import DataType

_TOKEN_RE = re.compile(r"""
    (?P<float>\d+\.\d+(?:e[+-]?\d+)?|\d+e[+-]?\d+)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][\w.]*)
  | (?P<op><=|>=|==|!=|//|\+=|\*=|->|§|¶|[-+*/%<>=!?:(),\[\]{}@])
""", re.VERBOSE)

_KEYWORDS = {"for", "in", "if", "else", "assert", "true", "false", "inf",
             "eval", "alloc", "free", "func", "and", "or"}


class _Tokens:

    def __init__(self, text: str):
        self.toks: List[str] = []
        #: the ``_TOKEN_RE`` group each token matched, parallel to toks
        self.kinds: List[str] = []
        #: JSON payloads of ``/*attrs {...}*/`` annotations, referenced
        #: from the token stream as ``¶attrs <index>`` (JSON text would
        #: not survive tokenization)
        self.attr_payloads: List[str] = []
        for line in text.splitlines():
            if "/*" in line:
                # loop/reduction annotations become explicit tokens;
                # anything else in comments is dropped
                line = re.sub(r"/\*attrs (.*?)\*/", self._stash_attrs,
                              line)
                line = re.sub(r"/\*parallel=([\w./]+)\*/",
                              r" ¶parallel \1 ", line)
                line = line.replace("/*unroll*/", " ¶unroll ")
                line = line.replace("/*vectorize*/", " ¶vectorize ")
                line = line.replace("/*atomic*/", " ¶atomic ")
                line = line.replace("/*pinned*/", " ¶pinned ")
                line = line.replace("/*prefer_libs*/", " ¶prefer_libs ")
                line = re.sub(r"/\*no_deps=([\w.,]+)\*/",
                              r" ¶no_deps \1 ", line)
                line = re.sub(r"/\*.*?\*/", "", line)
            line = re.sub(r"^\s*[\w.]+:\s", _label_tok, line)
            for m in _TOKEN_RE.finditer(line):
                self.toks.append(m.group(0))
                self.kinds.append(m.lastgroup)
        self.toks.append(None)  # end of text: peek() needs no bounds test
        self.pos = 0

    def _stash_attrs(self, m: re.Match) -> str:
        self.attr_payloads.append(m.group(1))
        return f" ¶attrs {len(self.attr_payloads) - 1} "

    def peek(self) -> Optional[str]:
        return self.toks[self.pos]

    def next(self) -> str:
        t = self.toks[self.pos]
        if t is None:
            raise InvalidProgram("unexpected end of IR text")
        self.pos += 1
        return t

    def expect(self, tok: str):
        t = self.next()
        if t != tok:
            raise InvalidProgram(f"expected {tok!r}, got {t!r} "
                                 f"(at {self.toks[max(0, self.pos-4):self.pos+3]})")

    def accept(self, tok: str) -> bool:
        if self.toks[self.pos] == tok:
            self.pos += 1
            return True
        return False


def _label_tok(m: re.Match) -> str:
    # "Li: for ..." -> "§ Li for ..." (labels become explicit tokens)
    inner = m.group(0).strip()
    return f"§ {inner[:-1]} "


class _Parser:

    def __init__(self, text: str):
        self.t = _Tokens(text)
        self.dtypes = {}  # tensor name -> DataType (for Load nodes)

    # -- expressions (precedence climbing) ---------------------------------
    def parse_expr(self) -> E.Expr:
        return self._ternary()

    def _ternary(self) -> E.Expr:
        cond = self._binary(1)
        if self.t.accept("?"):
            a = self._binary(1)
            self.t.expect(":")
            b = self._ternary()
            return E.IfExpr(cond, a, b)
        return cond

    #: binary operator -> (binding power, node class), left-associative
    _BINARY = {
        "or": (1, E.LOr), "and": (2, E.LAnd),
        "<": (3, E.LT), "<=": (3, E.LE), ">": (3, E.GT), ">=": (3, E.GE),
        "==": (3, E.EQ), "!=": (3, E.NE),
        "+": (4, E.Add), "-": (4, E.Sub),
        "*": (5, E.Mul), "/": (5, E.RealDiv), "//": (5, E.FloorDiv),
        "%": (5, E.Mod),
    }

    def _binary(self, min_power: int) -> E.Expr:
        """A chain of binary operators binding at least ``min_power``."""
        e = self._unary()
        while True:
            power, cls = self._BINARY.get(self.t.peek(), (0, None))
            if power < min_power:
                return e
            self.t.pos += 1
            e = cls(e, self._binary(power + 1))

    def _unary(self) -> E.Expr:
        if self.t.accept("-"):
            operand = self._unary()
            if isinstance(operand, E.IntConst):
                return E.IntConst(-operand.val)
            if isinstance(operand, E.FloatConst):
                return E.FloatConst(-operand.val)
            return E.Sub(E.wrap_like(0, operand.dtype), operand)
        if self.t.accept("!"):
            return E.LNot(self._unary())
        return self._atom()

    def _atom(self) -> E.Expr:
        t = self.t.next()
        kind = self.t.kinds[self.t.pos - 1]  # classified by the tokenizer
        if t == "(":
            e = self.parse_expr()
            self.t.expect(")")
            return e
        if kind == "float":
            return E.FloatConst(float(t))
        if kind == "int":
            return E.IntConst(int(t))
        if t == "true":
            return E.BoolConst(True)
        if t == "false":
            return E.BoolConst(False)
        if t == "inf":
            return E.FloatConst(float("inf"))
        # calls: min/max/intrinsics/dtype-casts
        if self.t.peek() == "(":
            self.t.next()
            args = [self.parse_expr()]
            while self.t.accept(","):
                args.append(self.parse_expr())
            self.t.expect(")")
            if t == "min":
                return E.Min(args[0], args[1])
            if t == "max":
                return E.Max(args[0], args[1])
            try:
                dtype = DataType.parse(t)
                return E.Cast(args[0], dtype)
            except ValueError:
                pass
            if t in E.INTRINSICS:
                dt = args[0].dtype
                if t not in ("abs", "pow", "unbound_min", "unbound_max") \
                        and not dt.is_float:
                    dt = DataType.FLOAT32
                return E.Intrinsic(t, args, dt)
            raise InvalidProgram(f"unknown function {t!r}")
        # load or scalar var
        if self.t.peek() == "[":
            self.t.next()
            idx = [self.parse_expr()]
            while self.t.accept(","):
                idx.append(self.parse_expr())
            self.t.expect("]")
            return E.Load(t, idx, self.dtypes.get(t, DataType.FLOAT32))
        if t in self.dtypes:  # a 0-D tensor read
            return E.Load(t, [], self.dtypes[t])
        return E.Var(t)

    # -- statements ----------------------------------------------------------
    def parse_stmts(self) -> S.Stmt:
        stmts = []
        while self.t.peek() is not None and self.t.peek() != "}":
            stmts.append(self.parse_stmt())
        return S.seq(stmts) if stmts else S.StmtSeq([])

    def parse_stmt(self) -> S.Stmt:
        label = None
        if self.t.accept("§"):
            label = self.t.next()
        t = self.t.peek()
        if t == "@":
            out = self._vardef()
        elif t == "for":
            out = self._for()
        elif t == "if":
            out = self._if()
        elif t == "assert":
            self.t.next()
            cond = self.parse_expr()
            self.t.expect("{")
            body = self.parse_stmts()
            self.t.expect("}")
            out = S.Assert(cond, body)
        elif t == "eval":
            self.t.next()
            out = S.Eval(self.parse_expr())
        elif t == "alloc":
            self.t.next()
            out = S.Alloc(self.t.next())
        elif t == "free":
            self.t.next()
            out = S.Free(self.t.next())
        elif t is not None and t.startswith("lib."):
            out = self._libcall()
        else:
            out = self._store_like()
        out.label = label
        return out

    def _vardef(self) -> S.Stmt:
        self.t.expect("@")
        atype = self.t.next()
        name = self.t.next()
        self.t.expect(":")
        dtype = DataType.parse(self.t.next())
        self.t.expect("[")
        shape = []
        if self.t.peek() != "]":
            shape.append(self.parse_expr())
            while self.t.accept(","):
                shape.append(self.parse_expr())
        self.t.expect("]")
        self.t.expect("@")
        mtype = self.t.next()
        if self.t.peek() == "/":  # mtypes like gpu/shared
            self.t.next()
            mtype += "/" + self.t.next()
        pinned = False
        if self.t.accept("¶"):
            mark = self.t.next()
            if mark != "pinned":
                raise InvalidProgram(f"unexpected annotation {mark!r}")
            pinned = True
        self.t.expect("{")
        self.dtypes[name] = dtype
        body = self.parse_stmts()
        self.t.expect("}")
        return S.VarDef(name, shape, dtype, atype, mtype, body,
                        pinned=pinned)

    def _for(self) -> S.Stmt:
        self.t.expect("for")
        it = self.t.next()
        self.t.expect("in")
        begin = self.parse_expr()
        self.t.expect(":")
        end = self.parse_expr()
        prop = S.ForProperty()
        while self.t.accept("¶"):
            kind = self.t.next()
            if kind == "parallel":
                prop.parallel = self.t.next()
            elif kind == "unroll":
                prop.unroll = True
            elif kind == "vectorize":
                prop.vectorize = True
            elif kind == "no_deps":
                names = [self.t.next()]
                while self.t.accept(","):
                    names.append(self.t.next())
                prop.no_deps = tuple(names)
            elif kind == "prefer_libs":
                prop.prefer_libs = True
            else:
                raise InvalidProgram(f"unknown loop annotation {kind!r}")
        self.t.expect("{")
        body = self.parse_stmts()
        self.t.expect("}")
        return S.For(it, begin, end, body, prop)

    def _if(self) -> S.Stmt:
        self.t.expect("if")
        cond = self.parse_expr()
        self.t.expect("{")
        then = self.parse_stmts()
        self.t.expect("}")
        els = None
        if self.t.accept("else"):
            self.t.expect("{")
            els = self.parse_stmts()
            self.t.expect("}")
        return S.If(cond, then, els)

    def _libcall(self) -> S.Stmt:
        # printed as lib.kind(outs <- args); "lib.kind" lexes as one name
        kind = self.t.next()[len("lib."):]
        self.t.expect("(")
        outs = []
        while self.t.peek() not in ("->", "<", ")"):  # "<-" lexes < -
            outs.append(self.t.next())
            self.t.accept(",")
        if self.t.accept("<"):
            self.t.expect("-")
        args = []
        while self.t.peek() != ")":
            args.append(self.t.next())
            self.t.accept(",")
        self.t.expect(")")
        attrs = None
        if self.t.accept("¶"):
            mark = self.t.next()
            if mark != "attrs":
                raise InvalidProgram(f"unexpected annotation {mark!r}")
            import json

            attrs = json.loads(self.t.attr_payloads[int(self.t.next())])
        return S.LibCall(kind, outs, args, attrs)

    def _store_like(self) -> S.Stmt:
        name = self.t.next()
        idx = []
        if self.t.accept("["):
            if self.t.peek() != "]":
                idx.append(self.parse_expr())
                while self.t.accept(","):
                    idx.append(self.parse_expr())
            self.t.expect("]")
        op = self.t.next()
        if op == "=":
            out = S.Store(name, idx, self.parse_expr())
        elif op == "+=":
            out = S.ReduceTo(name, idx, "+", self.parse_expr())
        elif op == "*=":
            out = S.ReduceTo(name, idx, "*", self.parse_expr())
        elif op in ("min", "max") and self.t.accept("="):
            out = S.ReduceTo(name, idx, op, self.parse_expr())
        else:
            raise InvalidProgram(f"unexpected assignment operator {op!r}")
        if self.t.accept("¶"):
            mark = self.t.next()
            if mark != "atomic" or not isinstance(out, S.ReduceTo):
                raise InvalidProgram(f"unexpected annotation {mark!r}")
            out.atomic = True
        return out


def parse_stmt(text: str) -> S.Stmt:
    """Parse a statement block in the printer's format."""
    p = _Parser(text)
    out = p.parse_stmts()
    if p.t.peek() is not None:
        raise InvalidProgram(f"trailing tokens: {p.t.toks[p.t.pos:-1]}")
    return out


def parse_program(text: str) -> S.Func:
    """Parse a full ``func name(params) -> rets { ... }`` dump."""
    header, _, body = text.partition("{")
    m = re.match(r"\s*func\s+([\w.]+)\((.*?)\)(?:\s*->\s*(.*?))?\s*$",
                 header)
    if not m:
        raise InvalidProgram("missing 'func' header")
    name = m.group(1)
    params = [p.strip() for p in m.group(2).split(",") if p.strip()]
    returns = [r.strip() for r in (m.group(3) or "").split(",")
               if r.strip()]
    body_text = body.rsplit("}", 1)[0]
    p = _Parser(body_text)
    stmt = p.parse_stmts()
    if p.t.peek() is not None:
        raise InvalidProgram(f"trailing tokens: {p.t.toks[p.t.pos:-1]}")
    # scalar params: loop/shape vars that are not tensor params
    from .functional import defined_tensors

    defs = defined_tensors(stmt)
    tensor_params = [q for q in params if q in defs]
    scalar_params = [q for q in params if q not in defs]
    return S.Func(name, tensor_params, returns, stmt,
                  scalar_params=scalar_params)
