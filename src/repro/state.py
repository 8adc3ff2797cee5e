"""Process-wide state, declared once: bounded memos and counter tables.

A memo or a counter table that outlives a call is an instance of one of
the two classes below, registered here by name. "Clear every memo",
"snapshot every table", "reset every table" and "disable every memo" are
loops over this module's registry (``clear_memos`` / ``stats`` /
``reset_stats`` / ``memos_on``), never hand-kept lists of imports.

This is a leaf: it imports nothing from ``repro``, so the polyhedral
engine at the bottom of the stack and the serving layer at the top
declare their state the same way.
"""

import os
import threading

#: makes eviction + insert (and a clear racing them) one step: serving
#: dispatcher threads compile concurrently, and two of them evicting the
#: same oldest key — or one evicting while the main thread clears — is a
#: ``KeyError`` / ``RuntimeError``. One lock for every memo; lookups stay
#: lock-free (a ``dict.get`` is atomic).
_LOCK = threading.Lock()
# a worker forked while another thread is mid-insert must not inherit
# the lock held: forks wait for the insert, the child starts unlocked
os.register_at_fork(before=_LOCK.acquire,
                    after_in_parent=_LOCK.release,
                    after_in_child=_LOCK.release)

_MEMOS = {}
_COUNTERS = {}


#: False disables every memo (differential tests set it)
memos_on = True


def memos_enabled() -> bool:
    """``memos_on``, read per lookup: flipping it takes effect at once."""
    return memos_on


def _register(table: dict, name: str, obj):
    if name in table:
        raise ValueError(f"{type(obj).__name__} {name!r} is already declared")
    table[name] = obj


class BoundedMemo:
    """A process-wide ``key -> value`` memo holding at most ``limit``
    entries; a full one loses its oldest entry (insertion order), never
    everything at once. Safe to use from many threads."""

    def __init__(self, name: str, limit: int):
        self.name = name
        self.limit = limit
        self._d = {}
        _register(_MEMOS, name, self)

    def get(self, key):
        """The memoized value, or None on a miss — and always while
        memos are disabled."""
        if not memos_enabled():
            return None
        return self._d.get(key)

    def put(self, key, value):
        if not memos_enabled():
            return
        d = self._d
        with _LOCK:
            if key not in d and len(d) >= self.limit:
                del d[next(iter(d))]
            d[key] = value

    def clear(self):
        with _LOCK:
            self._d.clear()

    def __len__(self):
        return len(self._d)


class Counters(dict):
    """A named table of cumulative counters — a dict declared with its
    zeros: int counts, ``*_s`` float seconds, a ``str`` label. Plain
    ``+=`` underneath — callers whose rows must move together hold their
    own lock around a group of updates. A table with rows riding beside
    it (a histogram, an open key set) subclasses ``snapshot``/``reset``."""

    def __init__(self, name: str, **zero):
        super().__init__(zero)
        self._zero = zero
        _register(_COUNTERS, name, self)

    def add(self, key: str, n=1):
        self[key] += n  # KeyError on an undeclared key

    def snapshot(self) -> dict:
        return dict(self)

    def reset(self):
        self.update(self._zero)


def clear_memos():
    """Empty every declared memo (counters are kept)."""
    for memo in _MEMOS.values():
        memo.clear()


def stats(name=None) -> dict:
    """A snapshot of every declared counter table, ``{name: {key:
    value}}`` — or of the one table ``name``."""
    if name is not None:
        return _COUNTERS[name].snapshot()
    return {n: table.snapshot() for n, table in _COUNTERS.items()}


def reset_stats():
    """Every declared counter table back to its zeros."""
    for table in _COUNTERS.values():
        table.reset()
