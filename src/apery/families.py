"""Named constructors for eight numerical semigroup families from the literature.

Each family is an instantiation of the geometric-step generator family at a
particular (a, b, d, k), so anything the closed forms or the oracle can do
applies to Mersenne, Thabit, repunit and the rest by name.
"""
from __future__ import annotations

from collections.abc import Mapping
from copy import deepcopy

from .closed_forms import FamilyParams, repunit_params, repunit_value
from .core import _Frozen, _shown, check_int
from .errors import InvalidParamsError


def mersenne(n: int) -> FamilyParams:
    """Mersenne semigroup: a = 2^n - 1, b = 2, d = 1, k = n - 1; n >= 2."""
    _check_bounds("mersenne", n=n)
    return repunit_params(2, n)


def thabit(n: int) -> FamilyParams:
    """Thabit semigroup: a = 3*2^n - 1, b = 2, d = 1, k = n + 1; n >= 1."""
    _check_bounds("thabit", n=n)
    return FamilyParams(a=3 * 2**n - 1, b=2, d=1, k=n + 1)


def gu_ze_tang(n: int, m: int) -> FamilyParams:
    """a = (2^m - 1)*2^n - 1, b = 2, d = 1, k = n + m - 1; n >= 1, 2 <= m <= 2^n."""
    _check_bounds("gu-ze-tang", n=n, m=m)
    if m > 2**n:
        raise InvalidParamsError(
            f"gu-ze-tang needs 2 <= m <= 2^n = {_shown(2**n)}, "
            f"got m={_shown(m)}")
    return FamilyParams(a=(2**m - 1) * 2**n - 1, b=2, d=1, k=n + m - 1)


def song_gt(n: int, m: int) -> FamilyParams:
    """a = (2^m + 1)*2^n - (2^m - 1), b = 2, d = 2^m - 1, k = n + delta.

    delta is 1 when n = 0, m when 0 < m <= n, and m - 1 when m > n >= 1.
    Requires m >= 2, n >= 0; n = 0 degenerates to two generators.
    """
    _check_bounds("song-gt", n=n, m=m)
    if n == 0:
        delta = 1
    elif m <= n:
        delta = m
    else:
        delta = m - 1
    return FamilyParams(a=(2**m + 1) * 2**n - (2**m - 1), b=2,
                        d=2**m - 1, k=n + delta)


def liu_xin(m: int, k: int, d: int = 1) -> FamilyParams:
    """a = m*(2^k - 1) + 2^(k-1) - 1, b = 2; m >= 1, k >= 3, free step d."""
    _check_bounds("liu-xin", m=m, k=k, d=d)
    return FamilyParams(a=m * (2**k - 1) + 2**(k - 1) - 1, b=2, d=d, k=k)


def repunit(b: int, n: int) -> FamilyParams:
    """Repunit semigroup: a = (b^n - 1)/(b - 1), d = 1, k = n - 1; b, n >= 2."""
    _check_bounds("repunit", b=b, n=n)
    return repunit_params(b, n)


def gu_ze(b: int, n: int) -> FamilyParams:
    """a = b^(n+1) + (b^n - 1)/(b - 1), d = 1, k = n + 1; b >= 2, n >= 0."""
    _check_bounds("gu-ze", b=b, n=n)
    return FamilyParams(a=b**(n + 1) + repunit_value(b, n), b=b, d=1, k=n + 1)


def thabit_base_b(b: int, n: int) -> FamilyParams:
    """Base-b Thabit semigroup: a = (b+1)*b^n - 1, d = b - 1, k = n + 1.

    Requires b >= 2, n >= 0; at b = 2 this is the classical Thabit family.
    """
    _check_bounds("thabit-base-b", b=b, n=n)
    return FamilyParams(a=(b + 1) * b**n - 1, b=b, d=b - 1, k=n + 1)


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
_ENTRIES: dict[str, dict] = {entry["name"]: entry for entry in _CATALOG}


def _check_bounds(family: str, **values: int) -> None:
    # lower bounds live only in the catalog; gu-ze-tang's m <= 2^n stays put
    for param in _ENTRIES[family]["params"]:
        name = param["name"]
        check_int(values[name], f"{family} {name}", param["min"])


class FamilySpec(_Frozen):
    """A family name plus its free parameters, ready to resolve."""

    _fields = ("name", "params")

    def __init__(self, name: str, params: Mapping[str, int] = ()):
        if name not in _RESOLVERS:
            raise InvalidParamsError(
                f"unknown family {name!r}; known: {', '.join(FAMILY_NAMES)}")
        vars(self).update(name=name, params=dict(params))
        entry = _ENTRIES[self.name]
        allowed = {p["name"] for p in entry["params"]}
        required = {p["name"] for p in entry["params"] if "default" not in p}
        given = set(self.params)
        if not required <= given:
            missing = ", ".join(sorted(required - given))
            raise InvalidParamsError(f"family {self.name} missing: {missing}")
        if not given <= allowed:
            extra = ", ".join(sorted(given - allowed))
            raise InvalidParamsError(
                f"family {self.name} does not take: {extra}")


def resolve(spec: FamilySpec) -> FamilyParams:
    """Map a named family instance to its (a, b, d, k) parameters."""
    return _RESOLVERS[spec.name](**spec.params)


def catalog() -> list[dict]:
    """All eight families with parameter names, bounds and defaults."""
    return deepcopy(list(_CATALOG))
