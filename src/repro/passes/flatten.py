"""Flatten nested statement sequences and drop empty ones."""

from __future__ import annotations

from ..ir import Mutator, Stmt, StmtSeq


def _is_empty(s: Stmt) -> bool:
    return isinstance(s, StmtSeq) and not s.stmts


class Flatten(Mutator):
    """Splice nested unlabelled sequences into their parent and drop empty
    ones, bottom-up (``simplify``'s sweep inherits the rule)."""

    def mutate_StmtSeq(self, s: StmtSeq) -> Stmt:
        flat = []
        for c in s.stmts:
            c = self.mutate_stmt(c)
            if _is_empty(c):
                continue
            if isinstance(c, StmtSeq) and c.label is None:
                flat.extend(c.stmts)
            else:
                flat.append(c)
        if len(flat) == 1 and s.label is None:
            return flat[0]
        if len(flat) == len(s.stmts) and \
                all(a is b for a, b in zip(flat, s.stmts)):
            return s
        out = StmtSeq(flat)
        out.sid, out.label = s.sid, s.label
        return out


def flatten_stmt_seq(node):
    """Flatten nested unlabelled StmtSeq nodes; drop empty sequences."""
    return Flatten()(node)
