"""The package's one argument rule, in a module that imports nothing from fubini.

``_require_at_least`` is the package's one check of an index, order, column
or limit argument; every module calls it, and the CLI relays its message.
A value out of range raises :class:`ArgumentError`, the ``ValueError`` of
every argument the package refuses, which the CLI reports as a usage
error. Its type half, ``_require_int``, also checks an integer that has no
lower bound: a b-file index, a table offset or value, and a series index.

``sequences`` binds all three names too, and the package exports
``ArgumentError`` from there. The rule lives here, a leaf, so a module
that needs it (``series``, ``registry``, ``cli``) does not load
``sequences`` for it.
"""

from operator import index


class ArgumentError(ValueError):
    """An argument the package refuses: out of range, or naming nothing it has."""


def _require_int(value, name: str) -> int:
    """``value`` as an int, or a ``TypeError`` naming ``name``: the type half of the check."""
    try:
        return index(value)  # a bool counts as its int; a float or str raises
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}") from None


def _require_at_least(value, minimum: int, name: str = "n") -> int:
    """``value`` as an int >= ``minimum``: the one check of an index, order, column or limit."""
    value = _require_int(value, name)
    if value < minimum:
        raise ArgumentError(f"{name} must be >= {minimum}, got {value}")
    return value
