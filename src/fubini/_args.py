"""The package's one argument rule, in a module that imports nothing from fubini.

``_require_at_least`` is the package's one check of an index, order, column
or limit argument; every module calls it, and the CLI relays its message.
A value out of range raises :class:`ArgumentError`, the ``ValueError`` of
every argument the package refuses, which the CLI reports as a usage
error. Its type half, ``_require_int``, also checks an integer that has no
lower bound: a b-file index, a table offset or value, and a series index.
``_require_type`` checks any other argument's type, naming the argument
and the types it takes.

``sequences`` binds all four names too, and the package exports
``ArgumentError`` from there. The rule lives here, a leaf, so a module
that needs it (``series``, ``registry``, ``cli``) does not load
``sequences`` for it.

The module also holds the CLI's two caps, :data:`MAX_INDEX` and
:data:`MAX_ORDER`, which ``cli`` checks every flag against and re-exports;
``series`` keeps its shared Pascal rows up to ``MAX_ORDER``.
"""

from operator import index

#: Largest index or row for ``--max``, ``--n`` and ``--limit``. Every value
#: printed stays below the 4300-digit int-to-str limit (the ordered Bell
#: number at 1000 has about 2,700 digits), and the slowest command at the
#: cap, ``verify all --max 1000 --order 64``, takes seconds, not minutes.
MAX_INDEX = 1000
#: Largest series order for ``--order``, and column for ``--k`` (columns past
#: the order are zero). It bounds the time of the O(order^2) series
#: recurrences: every ``egf`` and ``verify egf`` command at the cap takes
#: well under a second.
MAX_ORDER = 256


class ArgumentError(ValueError):
    """An argument the package refuses: out of range, or naming nothing it has."""


def _require_type(value, expected: tuple[type, ...], name: str) -> None:
    """A ``TypeError`` naming ``name`` and ``expected`` unless ``value`` is one of them."""
    if not isinstance(value, expected):
        names = " or ".join(t.__name__ for t in expected)
        raise TypeError(f"{name} must be {names}, got {type(value).__name__}")


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
