"""Named constructors for eight numerical semigroup families from the literature.

Each family is an instantiation of the geometric-step generator family at a
particular (a, b, d, k), so anything the closed forms or the oracle can do
applies to Mersenne, Thabit, repunit and the rest by name.
"""
from __future__ import annotations

from collections.abc import Mapping

from .closed_forms import FamilyParams, repunit_value
from .core import _Frozen, _shown, check_int
from .errors import InvalidParamsError


def mersenne(n: int) -> FamilyParams:
    """Mersenne semigroup: a = 2^n - 1, b = 2, d = 1, k = n - 1; n >= 2."""
    _check_bounds("mersenne", n)
    return FamilyParams((1 << n) - 1, 2, 1, n - 1)


def thabit(n: int) -> FamilyParams:
    """Thabit semigroup: a = 3*2^n - 1, b = 2, d = 1, k = n + 1; n >= 1."""
    _check_bounds("thabit", n)
    return FamilyParams(3 * (1 << n) - 1, 2, 1, n + 1)


def gu_ze_tang(n: int, m: int) -> FamilyParams:
    """a = (2^m - 1)*2^n - 1, b = 2, d = 1, k = n + m - 1; n >= 1, 2 <= m <= 2^n."""
    _check_bounds("gu-ze-tang", n, m)
    if m > 1 << n:
        raise InvalidParamsError(
            f"gu-ze-tang needs 2 <= m <= 2^n = {_shown(2**n)}, "
            f"got m={_shown(m)}")
    return FamilyParams((((1 << m) - 1) << n) - 1, 2, 1, n + m - 1)


def song_gt(n: int, m: int) -> FamilyParams:
    """a = (2^m + 1)*2^n - (2^m - 1), b = 2, d = 2^m - 1, k = n + delta.

    delta is 1 when n = 0, m when 0 < m <= n, and m - 1 when m > n >= 1.
    Requires m >= 2, n >= 0; n = 0 degenerates to two generators.
    """
    _check_bounds("song-gt", n, m)
    if n == 0:
        delta = 1
    elif m <= n:
        delta = m
    else:
        delta = m - 1
    t = 1 << m
    return FamilyParams(((t + 1) << n) - (t - 1), 2, t - 1, n + delta)


def liu_xin(m: int, k: int, d: int = 1) -> FamilyParams:
    """a = m*(2^k - 1) + 2^(k-1) - 1, b = 2; m >= 1, k >= 3, free step d."""
    _check_bounds("liu-xin", m, k, d)
    return FamilyParams(m * ((1 << k) - 1) + (1 << (k - 1)) - 1, 2, d, k)


def repunit(b: int, n: int) -> FamilyParams:
    """Repunit semigroup: a = (b^n - 1)/(b - 1), d = 1, k = n - 1; b, n >= 2."""
    _check_bounds("repunit", b, n)
    return FamilyParams(repunit_value(b, n), b, 1, n - 1)


def gu_ze(b: int, n: int) -> FamilyParams:
    """a = b^(n+1) + (b^n - 1)/(b - 1), d = 1, k = n + 1; b >= 2, n >= 0."""
    _check_bounds("gu-ze", b, n)
    t = b**n
    return FamilyParams(b * t + (t - 1) // (b - 1), b, 1, n + 1)


def thabit_base_b(b: int, n: int) -> FamilyParams:
    """Base-b Thabit semigroup: a = (b+1)*b^n - 1, d = b - 1, k = n + 1.

    Requires b >= 2, n >= 0; at b = 2 this is the classical Thabit family.
    """
    _check_bounds("thabit-base-b", b, n)
    return FamilyParams((b + 1) * b**n - 1, b, b - 1, n + 1)


_RESOLVERS = {
    "mersenne": mersenne,
    "thabit": thabit,
    "gu-ze-tang": gu_ze_tang,
    "song-gt": song_gt,
    "liu-xin": liu_xin,
    "repunit": repunit,
    "gu-ze": gu_ze,
    "thabit-base-b": thabit_base_b,
}

# Machine-readable parameter descriptors, in CLI presentation order.
_CATALOG: tuple[dict, ...] = (
    {
        "name": "mersenne",
        "params": [{"name": "n", "min": 2}],
        "resolves": "a=2^n-1, b=2, d=1, k=n-1",
    },
    {
        "name": "thabit",
        "params": [{"name": "n", "min": 1}],
        "resolves": "a=3*2^n-1, b=2, d=1, k=n+1",
    },
    {
        "name": "gu-ze-tang",
        "params": [{"name": "n", "min": 1}, {"name": "m", "min": 2, "max": "2^n"}],
        "resolves": "a=(2^m-1)*2^n-1, b=2, d=1, k=n+m-1",
    },
    {
        "name": "song-gt",
        "params": [{"name": "n", "min": 0}, {"name": "m", "min": 2}],
        "resolves": "a=(2^m+1)*2^n-(2^m-1), b=2, d=2^m-1, k=n+delta",
        "delta": [
            {"when": "n == 0", "value": "1"},
            {"when": "n != 0 and m <= n", "value": "m"},
            {"when": "n != 0 and m > n", "value": "m-1"},
        ],
    },
    {
        "name": "liu-xin",
        "params": [{"name": "m", "min": 1}, {"name": "k", "min": 3},
                   {"name": "d", "min": 1, "default": 1}],
        "resolves": "a=m*(2^k-1)+2^(k-1)-1, b=2",
    },
    {
        "name": "repunit",
        "params": [{"name": "b", "min": 2}, {"name": "n", "min": 2}],
        "resolves": "a=(b^n-1)/(b-1), d=1, k=n-1",
    },
    {
        "name": "gu-ze",
        "params": [{"name": "b", "min": 2}, {"name": "n", "min": 0}],
        "resolves": "a=b^(n+1)+(b^n-1)/(b-1), d=1, k=n+1",
    },
    {
        "name": "thabit-base-b",
        "params": [{"name": "b", "min": 2}, {"name": "n", "min": 0}],
        "resolves": "a=(b+1)*b^n-1, d=b-1, k=n+1",
    },
)

FAMILY_NAMES: tuple[str, ...] = tuple(entry["name"] for entry in _CATALOG)
# read off the catalog once: allowed and required keys, (label, min) rows
_KEYS = {e["name"]: (frozenset(p["name"] for p in e["params"]), frozenset(
    p["name"] for p in e["params"] if "default" not in p)) for e in _CATALOG}
_BOUNDS = {e["name"]: tuple((f"{e['name']} {p['name']}", p["min"])
                            for p in e["params"]) for e in _CATALOG}


def _check_bounds(family: str, *values: int) -> None:
    # values in catalog order; gu-ze-tang's m <= 2^n stays with gu_ze_tang
    for (label, low), value in zip(_BOUNDS[family], values):
        if type(value) is not int or value < low:
            check_int(value, label, low)


class FamilySpec(_Frozen):
    """A family name plus its free parameters, ready to resolve; a bad name,
    params or key raises InvalidParamsError here, a bad value in resolve."""

    _fields = ("name", "params")

    def __init__(self, name: str, params: Mapping[str, int] = ()):
        try:
            allowed, required = _KEYS[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise InvalidParamsError(f"unknown family {_shown(name)}; known: "
                                     f"{', '.join(FAMILY_NAMES)}") from None
        try:
            params = dict(params)
        except (TypeError, ValueError):
            raise InvalidParamsError(f"family {name} params must be a mapping,"
                                     f" got {_shown(params)}") from None
        if not required <= params.keys() <= allowed:
            if missing := required - params.keys():
                raise InvalidParamsError(
                    f"family {name} missing: {', '.join(sorted(missing))}")
            extra = ", ".join(sorted(
                k if isinstance(k, str) and len(k) <= 60 else _shown(k)
                for k in params.keys() - allowed))
            raise InvalidParamsError(f"family {name} does not take: {extra}")
        fields = vars(self)
        fields["name"], fields["params"] = name, params


def resolve(spec: FamilySpec) -> FamilyParams:
    """Map a named family instance to its (a, b, d, k) parameters; a value
    that is no int or out of bounds raises InvalidParamsError, as does a
    gcd(a, d) != 1."""
    return _RESOLVERS[spec.name](**spec.params)


def catalog() -> list[dict]:
    """All eight families with parameter names, bounds and defaults."""
    # imported here, so that a start-up that lists no family skips copy
    from copy import deepcopy
    return deepcopy(list(_CATALOG))
