"""PEP 562 lazy exports: a package loads the submodules behind its
public names on first use, not on import — a warm compile reads its
products from the persistent store and must not load the subsystems
that schedule, analyse, lower or interpret."""

from importlib import import_module


def lazy_exports(package: str, namespace: dict, table: dict):
    """The module ``__getattr__`` of ``package``: ``table`` maps a public
    name to the (relative) submodule defining it; any other name resolves
    to the submodule of that name, as when ``__init__`` imported
    everything. A resolved name is bound in ``namespace`` (the package's
    ``globals()``), so it is looked up once."""

    def __getattr__(name: str):
        module = table.get(name)
        if module is not None:
            value = getattr(import_module(module, package), name)
        else:
            try:
                value = import_module("." + name, package)
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(f"module {package!r} has no "
                                     f"attribute {name!r}") from None
        namespace[name] = value
        return value

    return __getattr__
