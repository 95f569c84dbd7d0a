"""Closed-form evaluators for the geometric-step generator family.

The family is (a, ba+d, b^2*a + (b^2-1)/(b-1)*d, ..., b^k*a + (b^k-1)/(b-1)*d)
with gcd(a, d) = 1, that is g_0 = a and g_i = R_i*step + a, where
R_i = (b^i-1)/(b-1) and step = (b-1)*a + d.  The least element of each
residue class is read off the greedy digit sum of the class index over the
orderly repunit coins (1, b+1, b^2+b+1, ...), computed by changemaking's
greedy loop, which yields exact Frobenius number, genus and Apery set
formulas with no search, for every a >= 2 and k >= 1:

1. An element x_0*a + sum x_i*g_i equals (x_0 + sum x_i)*a + M*step with
   M = sum x_i*R_i; its residue is d*M mod a.
2. So the least element of class index r (residue d*r mod a) is the minimum
   over m >= 0 of opt(r+m*a)*a + (r+m*a)*step, where opt is the optimal coin
   count over R_1..R_k; the repunit coins are orderly for every k, so opt
   is the greedy count.
3. Any m >= 1 exceeds the m = 0 value by at least a*step - opt(r)*a > 0,
   as opt(r) <= r < a < step.  The minimum is w_r = opt(r)*a + r*step.
4. opt(x-1) <= opt(x) + b-1: drop a unit coin, or trade one coin R_j
   (j >= 2) for b coins R_(j-1), since R_j - 1 = b*R_(j-1).
5. Hence w_(a-1) - w_r >= (a-1-r)*d > 0, so F = w_(a-1) - a.

The genus follows from the Apery set by Selmer's formula and PF by the
successor test.  When a is the base-b repunit (b^n - 1)/(b - 1) and
k = n - 1 everything specializes further, down to the pseudo-Frobenius
set; Mersenne, Thabit and repunit semigroups are instances.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .changemaking import _coin_values, _greedy_prefix, repunit_value
from .core import AperySet, ENGINE_CLOSED, Evaluation, GeneratorList, \
    OracleEvaluation, SemigroupReport, _cached, pseudo_frobenius_from_apery, \
    residue_cap
from .errors import ConsistencyError, InvalidParamsError, OracleInfeasibleError


@dataclass(frozen=True)
class FamilyParams:
    """Parameters (a, b, d, k) of the generator family; gcd(a, d) = 1."""

    a: int
    b: int
    d: int
    k: int

    def __post_init__(self):
        if self.a < 2:
            raise InvalidParamsError(f"need a >= 2, got {self.a}")
        if self.b < 2:
            raise InvalidParamsError(f"need b >= 2, got {self.b}")
        if self.d < 1:
            raise InvalidParamsError(f"need d >= 1, got {self.d}")
        if self.k < 1:
            raise InvalidParamsError(f"need k >= 1, got {self.k}")
        if gcd(self.a, self.d) != 1:
            raise InvalidParamsError(
                f"gcd(a, d) = gcd({self.a}, {self.d}) != 1")


def build_generators(p: FamilyParams) -> GeneratorList:
    """Explicit generator list (a, ba+d, ..., b^k*a + (b^k-1)/(b-1)*d)."""
    gens = [p.a]
    gens.extend(p.b**i * p.a + repunit_value(p.b, i) * p.d
                for i in range(1, p.k + 1))
    return GeneratorList(gens)


def _exact_half(n: int) -> int:
    q, rem = divmod(n, 2)
    if rem:
        raise ConsistencyError(f"expected an even intermediate value, got {n}")
    return q


def evaluate(source, engine: str, cap: int | None = None) -> Evaluation:
    """The one evaluation path of the library, the CLI and the verifier.

    engine "closed" evaluates the formulas at FamilyParams; engine "oracle"
    derives everything from one Dijkstra run over the generators of
    FamilyParams or of an explicit generator list.  Each quantity of the
    result is computed on first use and kept.  Any other engine, or the
    closed engine on a generator list, raises InvalidParamsError.
    """
    if engine == "closed" and isinstance(source, FamilyParams):
        return ClosedEvaluation(source, cap)
    if engine != "oracle":
        raise InvalidParamsError(
            f"engine {engine!r} cannot evaluate {type(source).__name__}; the "
            "engines are 'closed' (FamilyParams only) and 'oracle'")
    if isinstance(source, FamilyParams):
        source = build_generators(source)
    return OracleEvaluation(source, cap)


class ClosedEvaluation(Evaluation):
    """The closed formulas at FamilyParams."""

    engine = ENGINE_CLOSED

    @_cached
    def frobenius(self) -> int:
        p = self.source
        s_top = _greedy_prefix(_coin_values(p.b, p.k), p.a - 1)
        return ((p.b - 1) * p.a - p.b + p.d + s_top) * p.a - p.d

    @_cached
    def genus(self) -> int:
        p = self.source
        a, b, d = p.a, p.b, p.d
        n = repunit_specialization(p)
        if n is not None:
            return repunit_general_genus(b, n, d)
        values = _coin_values(b, p.k)
        series = sum(_greedy_prefix(values, r) for r in range(1, a))
        # (a-1)((b-1)a + d - 1) is even: a odd makes a-1 even, a even
        # forces d odd
        return series + _exact_half((a - 1) * ((b - 1) * a + d - 1))

    @_cached
    def minima(self) -> tuple[int, ...]:
        # the closed Apery set before AperySet checks it, so that verify
        # reports a wrong formula as a mismatch instead of failing
        p = self.source
        a, d = p.a, p.d
        if a > residue_cap(self.cap):
            raise OracleInfeasibleError(
                f"modulus {a} exceeds the residue cap {residue_cap(self.cap)}")
        # residue s holds class index s/d mod a
        d_inv = pow(d, -1, a)
        return tuple(_class_minima(p, [s * d_inv % a for s in range(a)]))

    @_cached
    def generators(self) -> GeneratorList:
        return build_generators(self.source)

    @_cached
    def apery(self) -> AperySet:
        return AperySet(self.source.a, self.minima, self.generators.elements)

    @_cached
    def pf(self) -> tuple[int, ...]:
        p = self.source
        n = repunit_specialization(p)
        if n is not None:
            return tuple(pseudo_frobenius_closed(p.b, n, p.d)[0])
        return tuple(pseudo_frobenius_from_apery(self.apery, cap=self.cap))


def _class_minima(p: FamilyParams, indices) -> list[int]:
    # w_r = (greedy digit sum of r) * a + r * step for each class index r,
    # the least element congruent to d*r mod a (steps 2 and 3 above)
    a, values = p.a, _coin_values(p.b, p.k)
    step = (p.b - 1) * a + p.d
    return [_greedy_prefix(values, r) * a + r * step for r in indices]


def residue_minimum(p: FamilyParams, r: int) -> int:
    """Least semigroup element congruent to d*r mod a, for 0 <= r <= a-1."""
    if not 0 <= r < p.a:
        raise InvalidParamsError(f"residue index {r} outside 0..{p.a - 1}")
    return _class_minima(p, (r,))[0]


def apery_closed(p: FamilyParams, cap: int | None = None) -> AperySet:
    """Full Apery set from the closed form, one greedy presentation per class.

    The value for class index r lands at residue d*r mod a; gcd(a, d) = 1
    makes the placement a bijection.  Materializes a list of length a, so the
    same residue cap as the oracle applies.
    """
    return evaluate(p, "closed", cap).apery


def frobenius_closed(p: FamilyParams) -> int:
    """Frobenius number ((b-1)*a - b + d + digit_sum(a-1)) * a - d."""
    return evaluate(p, "closed").frobenius


def genus_closed(p: FamilyParams) -> int:
    """Genus: digit-sum series over classes 1..a-1 plus (a-1)((b-1)a+d-1)/2.

    The series is an O(a*k) loop of greedy digit sums over the repunit coins,
    one per class; when (a, k) matches the repunit specialization
    a = (b^(k+1)-1)/(b-1) the whole genus is repunit_general_genus instead
    (the two are cross-checked in the test suite).
    """
    return evaluate(p, "closed").genus


def repunit_specialization(p: FamilyParams) -> int | None:
    """Return n with a = (b^n - 1)/(b - 1) and k = n - 1, or None."""
    n = p.k + 1
    return n if repunit_value(p.b, n) == p.a else None


def _check_repunit_args(b: int, n: int, d: int) -> int:
    if b < 2:
        raise InvalidParamsError(f"need b >= 2, got {b}")
    if n < 2:
        raise InvalidParamsError(f"need n >= 2, got {n}")
    if d < 1:
        raise InvalidParamsError(f"need d >= 1, got {d}")
    a = repunit_value(b, n)
    if gcd(a, d) != 1:
        raise InvalidParamsError(
            f"gcd((b^n-1)/(b-1), d) = gcd({a}, {d}) != 1")
    return a


def repunit_params(b: int, n: int, d: int = 1) -> FamilyParams:
    """Family parameters of the repunit specialization a=(b^n-1)/(b-1), k=n-1."""
    return FamilyParams(a=_check_repunit_args(b, n, d), b=b, d=d, k=n - 1)


def repunit_general_frobenius(b: int, n: int, d: int = 1) -> int:
    """Frobenius number (b^n + d - 1) * (b^n - 1)/(b - 1) - d."""
    a = _check_repunit_args(b, n, d)
    return (b**n + d - 1) * a - d


def repunit_general_genus(b: int, n: int, d: int = 1) -> int:
    """Genus (b^n - b)(b^n + d - 1)/(2(b-1)) + b^n (n-1)/2, exactly."""
    _check_repunit_args(b, n, d)
    # (b^n - b)/(b - 1) = b * repunit(b, n-1); halve the combined sum exactly
    return _exact_half(b * repunit_value(b, n - 1) * (b**n + d - 1)
                       + b**n * (n - 1))


def pseudo_frobenius_closed(b: int, n: int, d: int = 1) -> tuple[list[int], int]:
    """Pseudo-Frobenius set {F, F-d, ..., F-(n-2)d} and type n-1.

    Only valid at the repunit specialization; general parameters go through
    the oracle.
    """
    f = repunit_general_frobenius(b, n, d)
    return sorted(f - t * d for t in range(n - 1)), n - 1


def report_closed(p: FamilyParams, cap: int | None = None) -> SemigroupReport:
    """Closed-form report: F and g by formula everywhere.

    PF and type come from the specialized formula when (a, k) has the
    repunit shape; otherwise from the closed Apery set, which carries the
    family generators, by the O(a*k) successor test of
    pseudo_frobenius_from_apery.  The latter materializes a list of length
    a, so the residue cap applies off the repunit shape.
    """
    return evaluate(p, "closed", cap).report()
