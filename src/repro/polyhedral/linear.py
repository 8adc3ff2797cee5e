"""Integer affine expressions and constraints — the building blocks of the
Presburger engine (our substitute for isl, see DESIGN.md)."""

from __future__ import annotations

import itertools
from typing import Dict, Optional


class Affine:
    """An integer affine expression ``sum(coeffs[v] * v) + const``."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Optional[Dict[str, int]] = None,
                 const: int = 0):
        self.coeffs = {v: int(c) for v, c in (coeffs or {}).items()
                       if int(c) != 0}
        self.const = int(const)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def var(name: str, coeff: int = 1) -> "Affine":
        return Affine({name: coeff})

    @staticmethod
    def constant(c: int) -> "Affine":
        return Affine({}, c)

    # -- algebra -------------------------------------------------------------
    def __add__(self, other):
        other = _as_affine(other)
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs.items():
            coeffs[v] = coeffs.get(v, 0) + c
        return Affine(coeffs, self.const + other.const)

    def __sub__(self, other):
        return self + _as_affine(other) * -1

    def __mul__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        return Affine({v: c * k for v, c in self.coeffs.items()},
                      self.const * k)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    # -- queries -------------------------------------------------------------
    def is_constant(self) -> bool:
        return not self.coeffs

    def coeff(self, v: str) -> int:
        return self.coeffs.get(v, 0)

    def vars(self):
        return self.coeffs.keys()

    # -- identity ---------------------------------------------------------
    def key(self):
        return (tuple(sorted(self.coeffs.items())), self.const)

    def __eq__(self, other):
        return isinstance(other, Affine) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        parts = []
        for v, c in sorted(self.coeffs.items()):
            if c == 1:
                parts.append(f"+{v}")
            elif c == -1:
                parts.append(f"-{v}")
            else:
                parts.append(f"{c:+d}{v}")
        parts.append(f"{self.const:+d}")
        out = "".join(parts)
        return out[1:] if out.startswith("+") else out


def _as_affine(x) -> Affine:
    if isinstance(x, Affine):
        return x
    if isinstance(x, int):
        return Affine.constant(x)
    raise TypeError(f"cannot convert {x!r} to Affine")


class LinCon:
    """A linear constraint: ``expr >= 0`` or ``expr == 0``."""

    __slots__ = ("expr", "is_eq")

    def __init__(self, expr: Affine, is_eq: bool = False):
        self.expr = expr
        self.is_eq = is_eq

    # -- constructors --------------------------------------------------------
    @staticmethod
    def ge0(expr: Affine) -> "LinCon":
        return LinCon(expr, False)

    @staticmethod
    def eq0(expr: Affine) -> "LinCon":
        return LinCon(expr, True)

    @staticmethod
    def ge(a, b) -> "LinCon":
        return LinCon(_as_affine(a) - _as_affine(b), False)

    @staticmethod
    def le(a, b) -> "LinCon":
        return LinCon(_as_affine(b) - _as_affine(a), False)

    @staticmethod
    def gt(a, b) -> "LinCon":
        return LinCon(_as_affine(a) - _as_affine(b) - 1, False)

    @staticmethod
    def lt(a, b) -> "LinCon":
        return LinCon(_as_affine(b) - _as_affine(a) - 1, False)

    @staticmethod
    def eq(a, b) -> "LinCon":
        return LinCon(_as_affine(a) - _as_affine(b), True)

    # -- identity ---------------------------------------------------------
    def key(self):
        return (self.expr.key(), self.is_eq)

    def __eq__(self, other):
        return isinstance(other, LinCon) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"{self.expr!r} {'==' if self.is_eq else '>='} 0"


class Infeasible(Exception):
    """Internal signal: a constraint system is trivially unsatisfiable."""


_fresh_counter = itertools.count()


def fresh_var(prefix: str = "q") -> str:
    """A globally fresh variable name for existentials."""
    return f"${prefix}{next(_fresh_counter)}"
