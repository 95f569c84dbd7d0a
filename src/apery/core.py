"""Family-agnostic numerical semigroup engine.

The one computational object here is the Apery set of the least generator:
the minimum semigroup element in each residue class mod a.  It is computed
as shortest paths over the residue graph, by one heap-free round-robin
pass per generator (O(a*k) for k generators), and every classical quantity
(Frobenius number, genus, gaps, pseudo-Frobenius set, type) is derived
from it.  Its two O(a) loops use two facts: minima[0] = 0 is least, so the
cycle through 0 is walked from 0 with no scan, and minima[r] + g lies in
class r + g, so the pseudo-Frobenius test first reads minima rotated by g.
This module is the independent oracle for the closed-form evaluators.

All arithmetic is exact arbitrary-precision integer arithmetic.  The number
of residue classes a must fit in memory as a list index; a cap (default
10**7, set by the SEMIGROUP_ORACLE_CAP environment variable) turns oversized
requests into an OracleInfeasibleError instead of an out-of-memory crash.

The package's record types all derive from _Frozen, a small immutable base
with the value semantics of a frozen dataclass but not its import cost.
"""
from __future__ import annotations

import os
import re
from collections.abc import Iterable, Sequence
from itertools import repeat
from math import gcd

from .errors import ConsistencyError, InvalidParamsError, OracleInfeasibleError

DEFAULT_RESIDUE_CAP = 10**7
ORACLE_CAP_ENV = "SEMIGROUP_ORACLE_CAP"

ENGINE_ORACLE = "oracle"
ENGINE_CLOSED = "closed-form"

_DECIMAL = re.compile(r"\s*[+-]?[0-9]+\s*")


def residue_cap() -> int:
    """Effective residue cap: the env setting, else the default."""
    env = os.environ.get(ORACLE_CAP_ENV)
    return parse_int(env, ORACLE_CAP_ENV) if env else DEFAULT_RESIDUE_CAP


def parse_int(text: str, what: str) -> int:
    """The integer text spells in ASCII digits, with an optional sign and
    surrounding whitespace, else InvalidParamsError; int() alone would also
    take "1_000" and non-ASCII digits."""
    if _DECIMAL.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise InvalidParamsError(
        f"{what} must be a decimal integer, got {_shown(text)}")


def _shown(value) -> str:
    """value as an error message shows it.  An int wider than 64 bits shows
    its size, as "<integer of 3000000 bits>": its decimal text takes time
    quadratic in its length and tells a reader no more.  A text longer than
    60 characters shows its start and its length, anything else its repr,
    cut after 200 characters."""
    if isinstance(value, int) and value.bit_length() > 64:
        sign = "negative " if value < 0 else ""
        return f"<{sign}integer of {value.bit_length()} bits>"
    if isinstance(value, str) and len(value) > 60:
        return f"{value[:60]!r}... <{len(value)} characters>"
    return repr(value)[:200]


def check_cap(count: int, what: str) -> None:
    """Refuse a table of count entries above the residue cap."""
    limit = residue_cap()
    if count > limit:
        raise OracleInfeasibleError(
            f"{_shown(count)} {what} exceed the cap {_shown(limit)}; "
            f"set {ORACLE_CAP_ENV} to raise it")


def check_int(value, what: str, low: int | None = None) -> int:
    """Return value if it is an int, not a bool, and at least low when low
    is given; never convert, as int(7.9) would quietly answer for 7."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidParamsError(
            f"{what} must be an integer, got {_shown(value)}")
    if low is not None and value < low:
        raise InvalidParamsError(
            f"need {what} >= {_shown(low)}, got {_shown(value)}")
    return value


class _Frozen:
    """Base of the record types, whose __init__ sets the fields in _fields
    once, by vars(self).update(...).  The first _compared (all if None) give
    the hash and equality with exactly the same class; all show in repr."""

    _fields: tuple[str, ...] = ()
    _compared: int | None = None

    def __init_subclass__(cls):
        cls.__match_args__ = cls._fields

    def _key(self) -> tuple:
        return tuple(map(vars(self).get, self._fields[:self._compared]))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={vars(self)[name]!r}" for name in self._fields) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GeneratorList(_Frozen):
    """Canonicalized system of semigroup generators (sorted, deduplicated, gcd 1).

    Accepts any iterable of positive ints, bools excluded; 1 is allowed and
    yields the full semigroup N (Frobenius number -1 by convention).
    """

    _fields = ("elements",)

    def __init__(self, elements: Iterable[int]):
        elems = tuple(sorted({check_int(e, "generator", 1) for e in elements}))
        if not elems:
            raise InvalidParamsError("generator list is empty")
        g = gcd(*elems)
        if g != 1:
            raise InvalidParamsError(
                f"gcd of generators is {_shown(g)}, not 1: "
                "not a numerical semigroup")
        vars(self).update(elements=elems)

    @property
    def least(self) -> int:
        return self.elements[0]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def _as_generators(gens) -> GeneratorList:
    return gens if isinstance(gens, GeneratorList) else GeneratorList(gens)


def _successor_steps(generators: Iterable[int], a: int) -> tuple[int, ...]:
    """Smallest generator of each nonzero residue class mod a, ascending.

    A generator divisible by a never leads to another class, and a larger
    generator in a class already covered is the smaller one plus a multiple
    of a, so it is dominated; both are dropped.
    """
    smallest: dict[int, int] = {}
    for g in generators:
        r = g % a
        if r and (r not in smallest or g < smallest[r]):
            smallest[r] = g
    return tuple(sorted(smallest.values()))


class AperySet(_Frozen):
    """Apery set of the least generator: minima[r] is the least element = r mod a.

    generators is a generating set of the same semigroup, used by
    pseudo_frobenius_from_apery; it takes no part in equality or hashing,
    which stay on (modulus, minima).  When none is given it defaults to
    minima[1:], since the Apery set together with a generates the semigroup;
    that default is correct for any hand-built set but costs up to O(a^2)
    in the pseudo-Frobenius step, so callers that know the generators pass
    them.

    Cheap structural invariants are enforced here, including that every
    supplied generator lies in the semigroup; the semantic minimality of each
    entry is the oracle's job and is covered by the test suite.
    """

    _fields = ("modulus", "minima", "generators")
    _compared = 2

    def __init__(self, modulus: int, minima: Sequence[int],
                 generators: Sequence[int] = ()):
        minima = tuple(minima)
        if modulus < 1:
            raise InvalidParamsError("modulus must be >= 1")
        if len(minima) != modulus:
            raise InvalidParamsError(
                f"expected {modulus} minima, got {len(minima)}")
        if minima[0] != 0:
            raise ConsistencyError("minima[0] must be 0")
        for r, n in enumerate(minima):
            if n < 0 or n % modulus != r:
                raise ConsistencyError(
                    f"minima[{r}] = {n} is not congruent to {r} mod {modulus}")
        gens = tuple(generators) or minima[1:]
        for g in gens:
            if g < 1 or g < minima[g % modulus]:
                raise ConsistencyError(
                    f"generator {g} is not a positive element of the semigroup")
        vars(self).update(modulus=modulus, minima=minima, generators=gens)


class SemigroupReport(_Frozen):
    """Frobenius number, genus, pseudo-Frobenius set and type, plus provenance."""

    _fields = ("frobenius", "genus", "pf", "type", "engine")

    def __init__(self, frobenius: int, genus: int, pf: Sequence[int],
                 type: int, engine: str):
        pf = tuple(pf)
        if not pf:
            raise ConsistencyError("pseudo-Frobenius set is never empty")
        if frobenius != max(pf):
            raise ConsistencyError(f"frobenius {frobenius} != max(pf) {max(pf)}")
        if type != len(pf):
            raise ConsistencyError(f"type {type} != |pf| {len(pf)}")
        if engine not in (ENGINE_ORACLE, ENGINE_CLOSED):
            raise InvalidParamsError(f"unknown engine tag {engine!r}")
        vars(self).update(frobenius=frobenius, genus=genus, pf=pf, type=type,
                          engine=engine)


def apery_set(gens) -> AperySet:
    """Compute the Apery set of the least generator by round robin.

    Nodes are the residue classes 0..a-1 (a = least generator); each other
    generator g contributes edges r -> (r + g) mod a of weight g, and the
    shortest distance from 0 to r is exactly the least semigroup element
    congruent to r mod a.  Multiple generators sharing a residue class are
    pruned to the smallest, which dominates pointwise; the pruned steps are
    stored as the result's generators for the pseudo-Frobenius step.

    The distances are found by the round-robin algorithm of Boecker and
    Liptak (Algorithmica 2007): the steps are added one at a time, and each
    step g walks every cycle r -> r + g of the residues once, from the
    cycle's least entry, so the table is exact for the steps added so far
    after each walk.  That is O(a) per step and O(a*k) in all, with no heap.
    The cycle through 0 starts at table[0] = 0, the least entry, with no
    scan; when gcd(a, g mod a) = 1 it is the whole table.
    """
    gens = _as_generators(gens)
    a = gens.least
    check_cap(a, "residue classes")
    if a == 1:
        return AperySet(1, (0,))

    steps = _successor_steps(gens.elements[1:], a)

    # every Apery element is a sum of at most a-1 steps, so below this
    unreached = a * steps[-1]
    table = [unreached] * a
    table[0] = 0
    for g in steps:
        step = g % a
        if table[step] <= g:
            continue  # g is already in the semigroup built so far
        p = gcd(a, step)
        length = a // p - 1
        back = a - step  # r + step wraps past a exactly when r >= back
        r = w = 0  # table[0] = 0 is the least entry of the cycle through 0
        for c in range(p):
            if c:
                cycle = table[c::p]
                w = min(cycle)
                if w == unreached:
                    continue
                # a walk from the cycle's least entry is exact in one pass
                r = c + cycle.index(w) * p
            for _ in repeat(None, length):
                if r < back:
                    r += step
                else:
                    r -= back
                w += g
                t = table[r]
                if t < w:
                    w = t
                else:
                    table[r] = w
    if unreached in table:
        # unreachable residue would contradict gcd(gens) = 1
        raise ConsistencyError("residue graph not fully reachable despite gcd 1")
    return AperySet(a, tuple(table), steps)


def frobenius_from_apery(ape: AperySet) -> int:
    """Largest integer outside the semigroup: max of the Apery set minus a.

    Returns -1 exactly when the semigroup is all of N.
    """
    return max(ape.minima) - ape.modulus


def genus_from_apery(ape: AperySet) -> int:
    """Number of gaps: (sum of nonzero-class minima)/a - (a-1)/2, exactly."""
    a = ape.modulus
    total = sum(ape.minima)  # minima[0] is 0
    # g = total/a - (a-1)/2 as one exact division by 2a
    num = 2 * total - a * (a - 1)
    q, rem = divmod(num, 2 * a)
    if rem != 0:
        raise ConsistencyError(
            f"genus formula did not divide exactly (sum {total}, modulus {a})")
    if q < 0:
        raise ConsistencyError("negative genus indicates a corrupted Apery set")
    return q


def contains(ape: AperySet, n: int) -> bool:
    """Membership test: n is in the semigroup iff n >= 0 and n >= minima[n mod a]."""
    if check_int(n, "n") < 0:
        return False
    return n >= ape.minima[n % ape.modulus]


def gaps(ape: AperySet) -> list[int]:
    """All positive integers outside the semigroup, sorted ascending.

    Residue class r contributes minima[r] - a, minima[r] - 2a, ... down to r.
    The list has genus many entries, so a genus above residue_cap() raises
    OracleInfeasibleError before any of it is built.
    """
    check_cap(genus_from_apery(ape), "gaps")
    a = ape.modulus
    out = [n for r, w in enumerate(ape.minima) for n in range(r, w, a)]
    out.sort()
    return out


def pseudo_frobenius_from_apery(ape: AperySet) -> list[int]:
    """Pseudo-Frobenius numbers: {w - a : w maximal in the Apery set}.

    Maximality is under the partial order w <= w' iff w' - w is in the
    semigroup.  The Apery set is closed downward under that order, so w is
    maximal iff w + g lies outside it for every generator g not divisible
    by a, i.e. minima[(w + g) % a] != w + g (Rosales and Garcia-Sanchez,
    Numerical Semigroups, Springer 2009).  As minima[r] + g lies in class
    r + g, the first pass zips minima with its rotation by g % a.  That is
    O(a*k) lookups for k generators in ape.generators; a hand-built set
    without generators falls back to minima[1:] and costs up to O(a^2).
    """
    a = ape.modulus
    minima = ape.minima
    maximal = minima
    steps = _successor_steps(ape.generators, a)
    if steps:
        g = steps[0]
        rotated = minima[g % a:] + minima[:g % a]  # minima[(r + g) % a] at r
        maximal = [w for w, v in zip(minima, rotated) if v != w + g]
    for g in steps[1:]:
        maximal = [w for w in maximal if minima[(w + g) % a] != w + g]
    return sorted(w - a for w in maximal)


class _cached:
    """functools.cached_property without the lock it takes before Python
    3.12, which costs about a microsecond on each first access: the value
    is computed once and stored in the instance, where later reads find it."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class Evaluation:
    """Invariants of one semigroup under one engine, each computed on first
    use and then kept; the Apery set is built at most once and shared by
    the pseudo-Frobenius set and the gaps.  Subclasses supply apery,
    frobenius, genus and pf, and the engine tag.
    """

    def __init__(self, source):
        self.source = source

    @_cached
    def type(self) -> int:
        return len(self.pf)

    @_cached
    def gaps(self) -> list[int]:
        return gaps(self.apery)

    def report(self) -> SemigroupReport:
        return SemigroupReport(frobenius=self.frobenius, genus=self.genus,
                               pf=self.pf, type=self.type, engine=self.engine)


class OracleEvaluation(Evaluation):
    """Everything from one oracle Apery set (core.apery_set) of the
    generators in source."""

    engine = ENGINE_ORACLE

    @_cached
    def apery(self) -> AperySet:
        return apery_set(self.source)

    @_cached
    def frobenius(self) -> int:
        return frobenius_from_apery(self.apery)

    @_cached
    def genus(self) -> int:
        return genus_from_apery(self.apery)

    @_cached
    def pf(self) -> tuple[int, ...]:
        return tuple(pseudo_frobenius_from_apery(self.apery))


def semigroup_report(gens) -> SemigroupReport:
    """Full oracle report (F, g, PF, t) for an explicit generator list."""
    return OracleEvaluation(gens).report()
