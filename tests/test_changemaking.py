"""Change-making tests: DP vs greedy, orderliness certification, greedy
presentations and the colex order machinery."""
import time

import pytest
from hypothesis import given, settings, strategies as st

from apery import (
    CoinSystem,
    GreedyPresentation,
    InvalidParamsError,
    OracleInfeasibleError,
    colex_compare,
    digit_sum,
    greedy_count,
    greedy_presentation,
    is_orderly,
    opt_count,
    repunit_coins,
    weight,
)

import oracle_ref


class TestCoinSystem:
    def test_canonicalizes(self):
        coins = CoinSystem([4, 1, 3, 3])
        assert coins.denominations == (1, 3, 4)

    def test_requires_unit(self):
        with pytest.raises(InvalidParamsError):
            CoinSystem([2, 5])

    @pytest.mark.parametrize("coins, bad", [
        ([1, 3.5], "3.5"), ([1.0, 3], "1.0"), ([True, 3], "True"),
    ])
    def test_refuses_non_integers(self, coins, bad):
        with pytest.raises(InvalidParamsError, match=bad):
            CoinSystem(coins)
        with pytest.raises(InvalidParamsError, match=bad):
            greedy_count(coins, 7)

    def test_repunit_coins(self):
        assert repunit_coins(2, 4).denominations == (1, 3, 7, 15)
        assert repunit_coins(3, 3).denominations == (1, 4, 13)
        assert repunit_coins(10, 2).denominations == (1, 11)
        assert repunit_coins(5, 1).denominations == (1,)

    def test_repunit_coins_bounds(self):
        with pytest.raises(InvalidParamsError):
            repunit_coins(1, 3)
        with pytest.raises(InvalidParamsError):
            repunit_coins(3, 0)


class TestCounts:
    def test_classic_non_canonical_example(self):
        coins = CoinSystem([1, 3, 4])
        assert opt_count(coins, 6) == 2   # 3 + 3
        assert greedy_count(coins, 6) == 3  # 4 + 1 + 1

    def test_zero_amount(self):
        assert opt_count([1, 5], 0) == 0
        assert greedy_count([1, 5], 0) == 0

    def test_negative_amount_rejected(self):
        with pytest.raises(InvalidParamsError):
            opt_count([1, 5], -1)
        with pytest.raises(InvalidParamsError):
            greedy_count([1, 5], -1)

    def test_dp_cap(self, monkeypatch):
        with pytest.raises(OracleInfeasibleError):
            opt_count([1, 5], 10**9)
        # amount M needs M + 1 cells: 9 fits a cap of 10, 10 does not
        monkeypatch.setenv("SEMIGROUP_ORACLE_CAP", "10")
        assert opt_count([1, 5], 9) == 5
        with pytest.raises(OracleInfeasibleError):
            opt_count([1, 5], 10)

    def test_against_reference(self):
        for coins in ([1, 3, 4], [1, 2, 5], [1, 5, 8], [1, 7, 10, 13]):
            for amount in range(0, 80):
                assert opt_count(coins, amount) == \
                    oracle_ref.ref_opt_coins(coins, amount)

    @given(st.lists(st.integers(min_value=2, max_value=60),
                    min_size=1, max_size=5),
           st.integers(min_value=0, max_value=400))
    @settings(max_examples=100, deadline=None)
    def test_opt_never_exceeds_greedy(self, extras, amount):
        coins = CoinSystem([1, *extras])
        assert opt_count(coins, amount) <= greedy_count(coins, amount)


class TestOrderliness:
    def test_known_non_orderly(self):
        verdict = is_orderly([1, 3, 4])
        assert not verdict.orderly
        assert verdict.counterexample == 6
        assert opt_count([1, 3, 4], 6) < greedy_count([1, 3, 4], 6)

    def test_known_orderly(self):
        assert is_orderly([1, 2, 5]).orderly
        assert is_orderly([1, 5, 10, 25]).orderly
        assert is_orderly([1]).orderly

    def test_repunit_systems_orderly(self):
        for b in range(2, 8):
            for k in range(1, 6):
                verdict = is_orderly(repunit_coins(b, k))
                assert verdict.orderly, (b, k)
                assert verdict.counterexample is None

    def test_orderly_despite_a_non_orderly_prefix(self):
        # (1, 2, 12, 13) fails at 24 = 12 + 12, but the coin 24 mends it
        assert not is_orderly([1, 2, 12, 13]).orderly
        assert is_orderly([1, 2, 12, 13, 24]) == (True, None)

    def test_counterexample_is_the_smallest(self):
        # a failing prefix need not fail at the smallest amount, nor at one
        # where the whole system fails: (1, 7, 10) fails at 14, but in
        # (1, 7, 10, 13) greedy pays 14 = 13 + 1 optimally
        for coins, cx in (([1, 7, 10, 13], 17), ([1, 3, 10, 11], 13),
                          ([1, 4, 6, 9], 8), ([1, 2, 12, 13, 30], 24)):
            assert is_orderly(coins) == (False, cx)
            assert opt_count(coins, cx) < greedy_count(coins, cx)
            assert all(opt_count(coins, m) == greedy_count(coins, m)
                       for m in range(cx))

    def test_counterexample_is_genuine(self):
        for coins in ([1, 3, 4], [1, 5, 8], [1, 4, 6, 9], [1, 10, 25]):
            verdict = is_orderly(coins)
            if not verdict.orderly:
                cx = verdict.counterexample
                assert opt_count(coins, cx) < greedy_count(coins, cx)

    @given(st.lists(st.integers(min_value=2, max_value=30),
                    min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_verdict_matches_exhaustive_scan(self, extras):
        coins = CoinSystem([1, *extras])
        top = coins.denominations[-1]
        limit = 2 * top * top  # counterexamples appear below 2*top^2 if at all
        optimal = list(range(limit + 1))
        for c in coins.denominations[1:]:
            for m in range(c, limit + 1):
                if optimal[m - c] + 1 < optimal[m]:
                    optimal[m] = optimal[m - c] + 1
        clean = all(optimal[m] == greedy_count(coins, m)
                    for m in range(1, limit + 1))
        assert is_orderly(coins).orderly == clean


class TestGreedyPresentation:
    def test_digits_and_value(self):
        pres = greedy_presentation(2, 3, 11)
        assert pres.digits == (1, 1, 1)  # 1 + 3 + 7
        assert pres.value() == 11
        assert digit_sum(2, 3, 11) == 3

    def test_zero(self):
        assert greedy_presentation(3, 2, 0).digits == (0, 0)

    def test_long_presentation_of_a_small_amount(self):
        # only the repunits up to M are divided by, whatever k is
        coins = repunit_coins(2, 20)
        started = time.perf_counter()
        for m in (0, 1, 5, 12, 100, 1000):
            assert digit_sum(2, 10**5, m) == greedy_count(coins, m)
        assert time.perf_counter() - started < 5.0

    def test_value_round_trip(self):
        for b, k in [(2, 3), (3, 4), (5, 2), (4, 1)]:
            for m in range(0, 300):
                assert greedy_presentation(b, k, m).value() == m

    def test_digit_constraints_hold(self):
        # non-top digits stay <= b and a digit b above position 1 zeroes
        # everything below it
        for b, k in [(2, 4), (3, 3), (5, 3)]:
            for m in range(0, 500):
                digits = greedy_presentation(b, k, m).digits
                assert all(x <= b for x in digits[:-1])
                for i in range(1, k - 1):
                    if digits[i] == b:
                        assert not any(digits[:i])

    def test_top_digit_formula(self):
        for b, k in [(2, 3), (3, 4), (5, 2)]:
            top_coin = (b**k - 1) // (b - 1)
            for m in range(0, 400):
                digits = greedy_presentation(b, k, m).digits
                assert digits[-1] == (b - 1) * m // (b**k - 1), (b, k, m)
                assert digits[-1] == m // top_coin

    def test_invalid_vectors_rejected(self):
        with pytest.raises(InvalidParamsError):
            GreedyPresentation(2, 3, (3, 0, 0))  # non-top digit > b
        with pytest.raises(InvalidParamsError):
            GreedyPresentation(2, 3, (1, 2, 0))  # digit b with lower nonzero
        with pytest.raises(InvalidParamsError):
            GreedyPresentation(2, 3, (0, 0))  # wrong length
        with pytest.raises(InvalidParamsError):
            GreedyPresentation(2, 2, (5, 0))  # top digit not greedy quotient

    def test_optimality_via_orderliness(self):
        for b, k in [(2, 4), (3, 3)]:
            coins = repunit_coins(b, k)
            for m in range(0, 200):
                assert sum(greedy_presentation(b, k, m).digits) == \
                    opt_count(coins, m)


class TestColexAndWeight:
    def test_compare_basic(self):
        assert colex_compare((1, 0), (0, 1)) == -1  # higher index decides
        assert colex_compare((0, 1), (1, 0)) == 1
        assert colex_compare((2, 1), (2, 1)) == 0
        assert colex_compare((0, 2, 1), (1, 2, 1)) == -1

    def test_compare_length_mismatch(self):
        with pytest.raises(InvalidParamsError):
            colex_compare((1, 2), (1, 2, 3))

    def test_weight_definition(self):
        pres = greedy_presentation(3, 3, 17)  # 17 = 1*13 + 1*4 + 0
        assert pres.digits == (0, 1, 1)
        assert weight(pres) == 3**2 * 1 + 3**3 * 1

    def test_colex_of_values_orders_weights(self):
        # exhaustive small sweep of the monotonicity the formulas rely on
        for b, k in [(2, 3), (3, 3), (4, 2)]:
            entries = [greedy_presentation(b, k, m) for m in range(400)]
            entries.sort(key=lambda p: tuple(reversed(p.digits)))
            weights = [weight(p) for p in entries]
            assert weights == sorted(weights)
