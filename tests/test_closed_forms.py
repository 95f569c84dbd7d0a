"""Closed-form evaluator tests: formulas against the oracle and against
frozen, independently confirmed values."""
import time
import tracemalloc
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from apery import (
    AperySet,
    FamilyParams,
    GeneratorList,
    InvalidParamsError,
    ORACLE_CAP_ENV,
    OracleInfeasibleError,
    apery_closed,
    apery_set,
    build_generators,
    digit_sum,
    frobenius_closed,
    gu_ze,
    gu_ze_tang,
    frobenius_from_apery,
    genus_closed,
    genus_from_apery,
    mersenne,
    pseudo_frobenius_closed,
    pseudo_frobenius_from_apery,
    report_closed,
    repunit,
    repunit_general_frobenius,
    repunit_general_genus,
    repunit_params,
    repunit_specialization,
    repunit_value,
    residue_minimum,
    semigroup_report,
    thabit,
    thabit_base_b,
)
from apery import changemaking, closed_forms
from apery.closed_forms import evaluate

import family_ref
import oracle_ref


class TestFamilyParams:
    def test_validation(self):
        with pytest.raises(InvalidParamsError):
            FamilyParams(a=1, b=2, d=1, k=1)
        with pytest.raises(InvalidParamsError):
            FamilyParams(a=5, b=1, d=1, k=1)
        with pytest.raises(InvalidParamsError):
            FamilyParams(a=5, b=2, d=0, k=1)
        with pytest.raises(InvalidParamsError):
            FamilyParams(a=5, b=2, d=1, k=0)
        with pytest.raises(InvalidParamsError):
            FamilyParams(a=6, b=2, d=3, k=1)  # gcd(a, d) = 3

    @pytest.mark.parametrize("a, b, d, k, bad", [
        (7.0, 2, 1, 2, "7.0"), (7, 2.5, 1, 2, "2.5"), (7, 2, True, 2, "True"),
        (7, 2, 1, "2", "'2'"), (7, 2, 1, False, "False"),
    ])
    def test_refuses_non_integers(self, a, b, d, k, bad):
        with pytest.raises(InvalidParamsError, match=bad):
            FamilyParams(a=a, b=b, d=d, k=k)

    def test_step_is_a_property_not_a_field(self):
        # step = (b-1)a + d is read, not stored: the fields, equality, hash
        # and repr stay those of (a, b, d, k)
        for a, b, d, k in [(2, 2, 1, 4), (7, 3, 2, 2), (2**70 + 1, 5, 3, 9)]:
            p = FamilyParams(a=a, b=b, d=d, k=k)
            assert p.step == (b - 1) * a + d
            assert p == FamilyParams(a, b, d, k)
            assert hash(p) == hash(FamilyParams(a, b, d, k))
            assert repr(p) == f"FamilyParams(a={a}, b={b}, d={d}, k={k})"
        assert FamilyParams.__match_args__ == ("a", "b", "d", "k")
        with pytest.raises(AttributeError):
            p.step = 1

    def test_closed_forms_hold_for_a_below_k_minus_1(self):
        # the paper states its formulas for a >= k-1; they hold for every a
        for a, b, d, k in [(2, 2, 1, 4), (2, 3, 5, 6), (3, 2, 2, 6),
                           (4, 2, 3, 8)]:
            p = FamilyParams(a=a, b=b, d=d, k=k)
            gens = list(build_generators(p).elements)
            assert frobenius_closed(p) == oracle_ref.ref_frobenius(gens), p
            assert genus_closed(p) == oracle_ref.ref_genus(gens), p

    def test_closed_ops_accept_a_below_k_minus_1(self):
        p = FamilyParams(a=3, b=2, d=2, k=6)
        oracle = evaluate(p, "oracle")
        minima = oracle.apery.minima
        assert apery_closed(p).minima == minima
        assert [residue_minimum(p, r) for r in range(p.a)] == \
            [minima[p.d * r % p.a] for r in range(p.a)]
        report, expected = report_closed(p), oracle.report()
        assert (report.frobenius, report.genus, report.pf, report.type) \
            == (expected.frobenius, expected.genus, expected.pf, expected.type)


class TestEvaluate:
    def test_unknown_engine_rejected(self):
        p = FamilyParams(a=7, b=3, d=2, k=2)
        for engine in ("closed-form", "Closed", ""):
            with pytest.raises(InvalidParamsError):
                evaluate(p, engine)
            with pytest.raises(InvalidParamsError):
                evaluate(GeneratorList([7, 23, 71]), engine)

    def test_closed_engine_needs_family_params(self):
        with pytest.raises(InvalidParamsError):
            evaluate(GeneratorList([7, 23, 71]), "closed")

    def test_oracle_stops_at_sylvester_bound(self):
        # the terms above (a-1)*g_1 are never minimal generators, so the
        # bounded oracle agrees with the oracle on the full list
        points = 0
        for a in range(2, 41):
            for b in range(2, 5):
                for d in range(1, 5):
                    if gcd(a, d) != 1:
                        continue
                    for k in (1, 2, 3, 5, 9, 25):
                        p = FamilyParams(a, b, d, k)
                        full = apery_set(build_generators(p))
                        bounded = evaluate(p, "oracle")
                        assert bounded.apery.minima == full.minima, p
                        assert list(bounded.pf) == \
                            pseudo_frobenius_from_apery(full), p
                        points += 1
        assert points == 1854

    def test_oracle_at_huge_k_answers_at_once(self):
        started = time.perf_counter()
        ev = evaluate(FamilyParams(7, 2, 1, 10**6), "oracle")
        assert (ev.frobenius, ev.genus, ev.pf) == (55, 32, (54, 55))
        # a = 7, g_1 = 15: the terms 7, 15, 31, 63 lie within 6 * 15
        assert ev.source.elements == (7, 15, 31, 63)
        assert time.perf_counter() - started < 1.0


class TestBuildGenerators:
    def test_examples(self):
        assert build_generators(
            FamilyParams(a=5, b=2, d=1, k=2)).elements == (5, 11, 23)
        assert build_generators(
            FamilyParams(a=7, b=3, d=2, k=2)).elements == (7, 23, 71)
        assert build_generators(
            FamilyParams(a=3, b=2, d=1, k=1)).elements == (3, 7)

    def test_term_structure(self):
        p = FamilyParams(a=11, b=4, d=3, k=3)
        gens = build_generators(p).elements
        assert gens[0] == 11
        for i in range(1, 4):
            assert gens[i] == 4**i * 11 + (4**i - 1) // 3 * 3

    def test_no_hypothesis_needed(self):
        # a < k-1 is a valid family point
        p = FamilyParams(a=2, b=2, d=1, k=5)
        assert build_generators(p).elements == (2, 5, 11, 23, 47, 95)


class TestResidueMinimum:
    def test_matches_oracle_apery(self):
        for a, b, d, k in [(5, 2, 1, 2), (7, 3, 2, 2), (9, 2, 5, 3),
                           (12, 5, 7, 2), (31, 4, 3, 3)]:
            p = FamilyParams(a=a, b=b, d=d, k=k)
            minima = apery_set(build_generators(p)).minima
            for r in range(a):
                assert residue_minimum(p, r) == minima[d * r % a], (p, r)

    def test_residue_bounds(self):
        p = FamilyParams(a=5, b=2, d=1, k=2)
        for r in (-1, 5):
            with pytest.raises(InvalidParamsError) as err:
                residue_minimum(p, r)
            assert str(err.value) == f"residue index {r} outside 0..4"

    def test_class_zero(self):
        assert residue_minimum(FamilyParams(a=5, b=2, d=1, k=2), 0) == 0


class TestClosedAgainstOracle:
    def test_frozen_instances(self):
        cases = [((5, 2, 1, 2), 29, 16),
                 ((7, 3, 2, 2), 110, 57),
                 ((3, 2, 1, 1), 11, 6)]
        for (a, b, d, k), frob, genus in cases:
            p = FamilyParams(a=a, b=b, d=d, k=k)
            assert frobenius_closed(p) == frob
            assert genus_closed(p) == genus
            ape = apery_set(build_generators(p))
            assert frobenius_from_apery(ape) == frob
            assert genus_from_apery(ape) == genus

    def test_apery_closed_equals_oracle(self):
        # the last three have a < k-1
        for a, b, d, k in [(5, 2, 1, 2), (7, 3, 2, 2), (3, 2, 1, 1),
                           (31, 2, 3, 4), (25, 5, 4, 3), (59, 3, 5, 2),
                           (2, 2, 1, 5), (3, 3, 2, 9), (5, 2, 3, 12)]:
            p = FamilyParams(a=a, b=b, d=d, k=k)
            assert apery_closed(p).minima == \
                apery_set(build_generators(p)).minima, p

    def test_sylvester_reduction_at_k1(self):
        # two generators (a, ba+d): closed forms must match pq - p - q
        for a, b, d in [(3, 2, 1), (5, 4, 3), (8, 2, 7), (9, 5, 2)]:
            if gcd(a, d) != 1:
                continue
            p = FamilyParams(a=a, b=b, d=d, k=1)
            q = b * a + d
            assert frobenius_closed(p) == a * q - a - q
            assert genus_closed(p) == (a - 1) * (q - 1) // 2

    def test_apery_closed_cap(self, monkeypatch):
        monkeypatch.setenv(ORACLE_CAP_ENV, "1000")
        p = FamilyParams(a=10**6 + 3, b=2, d=1, k=2)
        with pytest.raises(OracleInfeasibleError, match=ORACLE_CAP_ENV):
            apery_closed(p)

    def test_genus_closed_cap(self, monkeypatch):
        # off the repunit shape the genus sums a table of a digit sums, so
        # the residue cap refuses it; at the repunit shape it is a formula
        monkeypatch.setenv(ORACLE_CAP_ENV, "100")
        shapes = set()
        for n in range(7, 10):
            for p in (mersenne(n), thabit(n), gu_ze(3, n), repunit(3, n)):
                assert p.a > 100
                if repunit_specialization(p) is None:
                    shapes.add("off")
                    with pytest.raises(OracleInfeasibleError,
                                       match=f"{p.a} residue classes"):
                        genus_closed(p)
                else:
                    shapes.add("repunit")
                    assert genus_closed(p) == repunit_general_genus(
                        p.b, p.k + 1, p.d)
        assert shapes == {"off", "repunit"}

    def test_one_greedy_pass_per_class(self, monkeypatch):
        # the genus and the Apery set read one table of a digit sums, and F
        # reads one more, through the single-amount sum; at the repunit
        # shape the genus reads none
        calls = []
        real = closed_forms._greedy_prefix
        monkeypatch.setattr(closed_forms, "_greedy_prefix",
                            lambda above, m: calls.append(m) or real(above, m))
        single = closed_forms._repunit_greedy_sum
        monkeypatch.setattr(closed_forms, "_repunit_greedy_sum",
                            lambda b, k, m: calls.append(m) or single(b, k, m))
        for p in (thabit(10), FamilyParams(a=97, b=3, d=2, k=3)):
            calls.clear()
            evaluate(p, "closed").report()
            assert len(calls) == p.a + 1, p
        calls.clear()
        evaluate(mersenne(10), "closed").report()
        assert len(calls) == 1

    def test_frobenius_reads_only_the_coins_it_divides_by(self, monkeypatch):
        # a - 1 = R_11 + R_10 for thabit(10) and 2*(R_5 + R_4) for
        # thabit_base_b(3, 4).  At b = 3 F stops the walk after the two
        # coins that carry a - 1.  At b = 2 F reads no repunit: the digit
        # sum is the least s with popcount(a - 1 + s) <= s (step 7).
        read = []
        real = changemaking._repunit_walk

        def walk(*args):
            for r in real(*args):
                read.append(r)
                yield r

        monkeypatch.setattr(changemaking, "_repunit_walk", walk)
        p = thabit(10)
        assert evaluate(p, "closed").frobenius == 9 * 2**20 - 3 * 2**10 - 1
        assert read == []
        read.clear()
        p = thabit_base_b(3, 4)
        assert evaluate(p, "closed").frobenius == frobenius_from_apery(
            apery_set(build_generators(p)))
        assert read == [repunit_value(3, 5), repunit_value(3, 4)]

    def test_sieve_confirmation(self):
        # one case checked against the naive sieve, not just the oracle
        p = FamilyParams(a=7, b=3, d=2, k=2)
        gens = list(build_generators(p).elements)
        assert frobenius_closed(p) == oracle_ref.ref_frobenius(gens)
        assert genus_closed(p) == oracle_ref.ref_genus(gens)


@st.composite
def family_params(draw):
    # k up to a + 12, so many draws have a < k-1
    a = draw(st.integers(2, 30))
    d = draw(st.integers(1, 12).filter(lambda d: gcd(a, d) == 1))
    return FamilyParams(a=a, b=draw(st.integers(2, 6)), d=d,
                        k=draw(st.integers(1, a + 12)))


@given(family_params())
@settings(max_examples=150, deadline=None)
def test_closed_equals_oracle_for_random_params(p):
    closed, oracle = evaluate(p, "closed"), evaluate(p, "oracle")
    assert closed.frobenius == oracle.frobenius
    assert closed.genus == oracle.genus
    assert closed.minima == oracle.apery.minima
    assert closed.pf == oracle.pf


class TestRepunitSpecialization:
    def test_detection(self):
        assert repunit_specialization(FamilyParams(a=7, b=2, d=1, k=2)) == 3
        assert repunit_specialization(FamilyParams(a=4, b=3, d=1, k=1)) == 2
        assert repunit_specialization(FamilyParams(a=5, b=2, d=1, k=2)) is None

    def test_repunit_params(self):
        p = repunit_params(3, 2, 1)
        assert (p.a, p.b, p.d, p.k) == (4, 3, 1, 1)
        assert repunit_value(3, 2) == 4
        assert repunit_value(2, 5) == 31
        assert repunit_value(10, 3) == 111

    def test_frozen_values(self):
        assert repunit_general_frobenius(3, 2, 1) == 35
        assert repunit_general_genus(3, 2, 1) == 18
        assert repunit_general_frobenius(2, 3, 1) == 55
        assert repunit_general_genus(2, 3, 1) == 32

    def test_default_d_is_one(self):
        for b, n in [(2, 2), (3, 2), (2, 5), (5, 3)]:
            assert repunit_general_frobenius(b, n) == \
                repunit_general_frobenius(b, n, 1)
            assert repunit_general_genus(b, n) == repunit_general_genus(b, n, 1)
            assert pseudo_frobenius_closed(b, n) == \
                pseudo_frobenius_closed(b, n, 1)

    def test_validation(self):
        with pytest.raises(InvalidParamsError):
            repunit_general_frobenius(1, 3, 1)
        with pytest.raises(InvalidParamsError):
            repunit_general_frobenius(2, 1, 1)
        with pytest.raises(InvalidParamsError):
            repunit_general_frobenius(2, 3, 0)
        with pytest.raises(InvalidParamsError):
            # a = 111 = 3 * 37 shares a factor with d = 3
            repunit_general_frobenius(10, 3, 3)

    def test_equals_general_closed_forms(self):
        for b in range(2, 6):
            for n in range(2, 7):
                a = repunit_value(b, n)
                for d in range(1, 5):
                    if gcd(a, d) != 1:
                        continue
                    p = FamilyParams(a=a, b=b, d=d, k=n - 1)
                    assert repunit_general_frobenius(b, n, d) == \
                        frobenius_closed(p)
                    assert repunit_general_genus(b, n, d) == genus_closed(p)

    def test_evaluation_does_not_rebuild_params(self, monkeypatch):
        # the evaluation already holds checked parameters, so at the repunit
        # shape its genus and PF do not go through repunit_params again
        cases = [(2, 20, 1), (3, 4, 7), (10, 3, 7), (2, 3, 3)]
        expected = [(repunit_general_genus(b, n, d),
                     tuple(pseudo_frobenius_closed(b, n, d)[0]))
                    for b, n, d in cases]
        params = [repunit_params(b, n, d) for b, n, d in cases]
        assert params[0] == mersenne(20)

        def refuse(*args):
            raise AssertionError("repunit_params called")
        monkeypatch.setattr(closed_forms, "repunit_params", refuse)
        for p, want in zip(params, expected):
            ev = evaluate(p, "closed")
            assert (ev.genus, ev.pf) == want

    def test_genus_series_shortcut_equals_iteration(self):
        # the specialization uses a closed digit-sum series; force the
        # generic O(a*k) series on the same parameters and compare
        from apery.changemaking import digit_sum
        for b, n in [(2, 4), (3, 3), (5, 3), (4, 4)]:
            p = repunit_params(b, n)
            series = sum(digit_sum(b, p.k, r) for r in range(1, p.a))
            expected = series + (p.a - 1) * ((b - 1) * p.a + 1 - 1) // 2
            assert genus_closed(p) == expected


class TestPseudoFrobeniusClosed:
    def test_frozen_mersenne_case(self):
        pf, t = pseudo_frobenius_closed(2, 3, 1)
        assert pf == [54, 55]
        assert t == 2

    def test_structure(self):
        for b, n, d in [(2, 4, 1), (3, 3, 2), (5, 2, 3), (2, 6, 3)]:
            if gcd(repunit_value(b, n), d) != 1:
                continue
            pf, t = pseudo_frobenius_closed(b, n, d)
            frob = repunit_general_frobenius(b, n, d)
            assert t == n - 1
            assert len(pf) == t
            assert max(pf) == frob
            assert pf == sorted(frob - i * d for i in range(n - 1))

    def test_matches_oracle(self):
        for b, n, d in [(2, 3, 1), (2, 4, 3), (3, 2, 2), (3, 3, 1),
                        (4, 3, 2), (5, 2, 1)]:
            if gcd(repunit_value(b, n), d) != 1:
                continue
            p = repunit_params(b, n, d)
            oracle_pf = pseudo_frobenius_from_apery(
                apery_set(build_generators(p)))
            pf, t = pseudo_frobenius_closed(b, n, d)
            assert pf == oracle_pf
            assert t == len(oracle_pf)


class TestReportClosed:
    def test_specialized_pf_path(self):
        report = report_closed(repunit_params(2, 3, 1))
        assert report.engine == "closed-form"
        assert (report.frobenius, report.genus) == (55, 32)
        assert report.pf == (54, 55)
        assert report.type == 2

    def test_general_pf_path(self):
        p = FamilyParams(a=7, b=3, d=2, k=2)
        assert repunit_specialization(p) is None
        report = report_closed(p)
        oracle = semigroup_report(build_generators(p))
        assert report.frobenius == oracle.frobenius
        assert report.genus == oracle.genus
        assert report.pf == oracle.pf
        assert report.type == oracle.type
        assert report.engine != oracle.engine

    def test_matches_oracle_off_repunit_shape_at_large_a(self):
        for p in (thabit(10), gu_ze(3, 6)):
            assert 1000 < p.a < 5000
            assert repunit_specialization(p) is None
            report = report_closed(p)
            oracle = semigroup_report(build_generators(p))
            assert (report.frobenius, report.genus, report.pf, report.type) \
                == (oracle.frobenius, oracle.genus, oracle.pf, oracle.type)

    def test_huge_parameters_stay_exact(self):
        # far beyond anything the oracle could touch
        frob = repunit_general_frobenius(10, 40, 7)
        a = repunit_value(10, 40)
        assert frob == (10**40 + 6) * a - 7
        pf, t = pseudo_frobenius_closed(10, 40, 7)
        assert t == 39
        assert max(pf) == frob
        assert min(pf) == frob - 38 * 7


class TestRepunitsBelowA:
    """Step 6 of the closed_forms docstring: coins R_i >= a change nothing."""

    def test_k_past_the_last_repunit_below_a_changes_nothing(self):
        for b in range(2, 5):
            for a in range(2, 41):
                # kappa: how many repunits lie below a
                kappa = max(i for i in range(1, 8) if repunit_value(b, i) < a)
                for d in (1, 2, 5):
                    if gcd(a, d) != 1:
                        continue
                    for k in range(1, 13):
                        ev = evaluate(FamilyParams(a, b, d, k), "closed")
                        cut = evaluate(FamilyParams(a, b, d, min(k, kappa)),
                                       "closed")
                        oracle = semigroup_report(
                            build_generators(FamilyParams(a, b, d, k)))
                        got = (ev.frobenius, ev.genus, ev.minima, ev.pf)
                        assert got == (cut.frobenius, cut.genus, cut.minima,
                                       cut.pf), (a, b, d, k)
                        assert (ev.frobenius, ev.genus, ev.pf) == (
                            oracle.frobenius, oracle.genus, oracle.pf)
                        assert len(ev.apery.generators) == min(k, kappa) + 1

    def test_generating_set_is_minimal(self):
        # g is redundant exactly when g - h lies in S for a generator h < g,
        # read off the oracle Apery set of every family term
        for a in range(2, 41):
            for b in range(2, 6):
                for d in range(1, 8):
                    if gcd(a, d) != 1:
                        continue
                    for k in range(1, 9):
                        p = FamilyParams(a, b, d, k)
                        gens = build_generators(p).elements
                        minima = apery_set(gens).minima

                        def in_s(x):
                            return x >= minima[x % a]

                        minimal = [g for g in gens if not any(
                            in_s(g - h) for h in gens if h < g)]
                        assert list(evaluate(p, "closed").apery.generators) \
                            == minimal, p

    def test_huge_k_answers_at_once(self):
        started = time.perf_counter()
        report = report_closed(FamilyParams(7, 2, 1, 10**6))
        assert (report.frobenius, report.genus, report.pf) == (55, 32,
                                                               (54, 55))
        # R_2 = b + 1 already passes a = 7, so the search stops there
        assert repunit_specialization(
            FamilyParams(7, 10**100, 1, 10**6)) is None
        assert time.perf_counter() - started < 1.0


class TestHugeFamilyMembers:
    """F, the repunit-shape genus and residue_minimum hold O(bits of a)."""

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("family, frobenius", [
        (mersenne, lambda n: 2**(2 * n) - 2**n - 1),
        (thabit, lambda n: 9 * 2**(2 * n) - 3 * 2**n - 1),
    ])
    def test_under_one_megabyte(self, family, frobenius):
        n = 20000
        p = family(n)
        f, peak = self.peak(lambda: evaluate(p, "closed").frobenius)
        assert f == frobenius(n)
        assert peak < 2**20
        w, peak = self.peak(lambda: residue_minimum(p, p.a - 1))
        assert w == f + p.a
        assert peak < 2**20
        if family is mersenne:
            g, peak = self.peak(lambda: evaluate(p, "closed").genus)
            assert g == repunit_general_genus(2, n)
            assert peak < 2**20

    def test_residue_minimum_of_a_long_run_of_ones(self):
        # a - 1 = 2^20020 - 2^20 - 2 for gu_ze_tang(20, 20000): 19999 1 bits
        # above the 0 bit 20, each a greedy digit that the walk alone would
        # divide by; F and residue_minimum share the base-2 digit sum
        p = gu_ze_tang(20, 20000)
        started = time.perf_counter()
        w = residue_minimum(p, p.a - 1)
        assert time.perf_counter() - started < 0.05
        assert w == evaluate(p, "closed").frobenius + p.a

    def test_frobenius_of_a_run_of_ones_to_the_top(self):
        # a - 1 = 2^65552 - 2^16 - 2 for gu_ze_tang(16, 65536): its 65535
        # high 1 bits run up to the top; step 7's search reads them in a
        # few passes in C, where a walk of one repunit per bit would take
        # over a second
        p = gu_ze_tang(16, 65536)
        started = time.perf_counter()
        f = frobenius_closed(p)
        assert time.perf_counter() - started < 0.1
        assert f == family_ref.gu_ze_tang_frobenius(16, 65536)

    def test_digit_sum_of_a_minus_one(self):
        # a - 1 is R_(n+1) + R_n for thabit and 2*R_(n-1) for mersenne;
        # digit_sum divides by no smaller repunit
        for p in (thabit(20000), mersenne(20000)):
            started = time.perf_counter()
            assert digit_sum(p.b, p.k, p.a - 1) == 2
            assert time.perf_counter() - started < 0.05

    def test_repunit_shape_test_builds_no_long_power(self):
        started = time.perf_counter()
        assert repunit_specialization(FamilyParams(7, 2, 1, 10**15)) is None
        assert repunit_specialization(mersenne(20000)) == 20000
        assert repunit_specialization(
            FamilyParams(mersenne(20000).a, 2, 1, 20000)) is None
        assert time.perf_counter() - started < 0.5


class TestDocumentedGenusVariant:
    def test_printed_variant_is_rejected(self):
        # A published genus expression for the d = 1 specialization reads
        # (b^n / 2) * ((b^n - 1)/(b - 1) + n - 1); at b=3, n=2 that gives
        # 45/2, a non-integer, while the oracle genus of <4, 13> is 18.
        # The implemented formula agrees with the oracle.
        gens = [4, 13]
        assert oracle_ref.ref_genus(gens) == 18
        oracle_genus = genus_from_apery(apery_set(gens))
        assert oracle_genus == 18
        assert repunit_general_genus(3, 2, 1) == 18
        variant_numerator = 3**2 * ((3**2 - 1) // (3 - 1) + 2 - 1)
        assert variant_numerator == 45  # odd: the variant is not an integer
        assert variant_numerator != 2 * oracle_genus
