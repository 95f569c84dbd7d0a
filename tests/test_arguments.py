"""Every integer argument of the public API goes through core.check_int: a
non-int or a bool, or an int below the argument's lower bound, raises
InvalidParamsError naming the value; nothing converts or answers for it."""
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from apery import (
    CoinSystem,
    FamilyParams,
    GeneratorList,
    GreedyPresentation,
    GridSpec,
    InvalidParamsError,
    OracleInfeasibleError,
    apery_set,
    contains,
    cross_check,
    digit_sum,
    genus_closed,
    greedy_count,
    greedy_presentation,
    gu_ze,
    gu_ze_tang,
    liu_xin,
    mersenne,
    opt_count,
    property_suite,
    pseudo_frobenius_closed,
    repunit,
    repunit_coins,
    repunit_general_frobenius,
    repunit_general_genus,
    repunit_params,
    residue_minimum,
    song_gt,
    thabit,
    thabit_base_b,
)
from apery.cli import main
from apery.core import parse_int, residue_cap

P = FamilyParams(7, 2, 1, 2)
APE = apery_set([3, 5])

# (label, call taking the argument under test, an int below its bound or
# None where the call has no lower bound that raises)
ENTRY_POINTS = [
    ("contains n", lambda x: contains(APE, x), None),
    ("opt_count amount", lambda x: opt_count([1, 3, 4], x), -1),
    ("greedy_count amount", lambda x: greedy_count([1, 3, 4], x), -1),
    ("greedy_presentation base", lambda x: greedy_presentation(x, 3, 7), 1),
    ("greedy_presentation length", lambda x: greedy_presentation(2, x, 7), 0),
    ("greedy_presentation amount", lambda x: greedy_presentation(2, 3, x), -1),
    ("digit_sum amount", lambda x: digit_sum(2, 3, x), -1),
    ("repunit_coins base", lambda x: repunit_coins(x, 3), 1),
    ("repunit_coins length", lambda x: repunit_coins(2, x), 0),
    ("GreedyPresentation base", lambda x: GreedyPresentation(x, 2, (1, 0)), 1),
    ("GreedyPresentation length", lambda x: GreedyPresentation(2, x, (1,)), 0),
    ("GreedyPresentation digit",
     lambda x: GreedyPresentation(2, 2, (x, 0)), -1),
    ("residue_minimum r", lambda x: residue_minimum(P, x), None),
    ("repunit_params b", lambda x: repunit_params(x, 3), 1),
    ("repunit_params n", lambda x: repunit_params(2, x), 1),
    ("repunit_params d", lambda x: repunit_params(2, 3, x), 0),
    ("repunit_general_frobenius n",
     lambda x: repunit_general_frobenius(2, x), 1),
    ("repunit_general_genus b", lambda x: repunit_general_genus(x, 3), 1),
    ("pseudo_frobenius_closed n", lambda x: pseudo_frobenius_closed(2, x), 1),
    ("mersenne n", mersenne, 1),
    ("thabit n", thabit, 0),
    ("gu_ze_tang n", lambda x: gu_ze_tang(x, 2), 0),
    ("gu_ze_tang m", lambda x: gu_ze_tang(2, x), 1),
    ("song_gt n", lambda x: song_gt(x, 2), -1),
    ("liu_xin d", lambda x: liu_xin(1, 3, x), 0),
    ("repunit b", lambda x: repunit(x, 3), 1),
    ("gu_ze n", lambda x: gu_ze(2, x), -1),
    ("thabit_base_b b", lambda x: thabit_base_b(x, 1), 1),
    ("GridSpec range start", lambda x: GridSpec(a_range=(x, 60)), 1),
    ("GridSpec range end", lambda x: GridSpec(d_range=(3, x)), 2),
    ("cross_check jobs", lambda x: cross_check(jobs=x), 0),
    ("property_suite budget", lambda x: property_suite(budget=x), 0),
]


@pytest.mark.parametrize("bad", [7.5, True, "7"])
@pytest.mark.parametrize("call", [c for _, c, _ in ENTRY_POINTS],
                         ids=[label for label, _, _ in ENTRY_POINTS])
def test_non_integers_refused(call, bad):
    with pytest.raises(InvalidParamsError, match=re.escape(repr(bad))):
        call(bad)


@pytest.mark.parametrize(
    "call, low", [(c, low) for _, c, low in ENTRY_POINTS if low is not None],
    ids=[label for label, _, low in ENTRY_POINTS if low is not None])
def test_values_below_bound_refused(call, low):
    with pytest.raises(InvalidParamsError, match=rf"got {low}\b"):
        call(low)


def test_bound_message():
    with pytest.raises(InvalidParamsError,
                       match=re.escape("need thabit n >= 1, got 0")):
        thabit(0)
    with pytest.raises(InvalidParamsError,
                       match=re.escape("need base >= 2, got 1")):
        repunit_coins(1, 3)


values = st.one_of(st.integers(-3, 40), st.integers(), st.floats(),
                   st.booleans(), st.text(max_size=3))


@given(st.lists(values, max_size=4), values, st.lists(values, min_size=4,
                                                      max_size=4))
@settings(max_examples=300, deadline=None)
def test_any_value_gives_an_answer_or_a_typed_error(elements, amount, params):
    # a small cap turns every large DP table into OracleInfeasibleError
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("SEMIGROUP_ORACLE_CAP", "1000")
        calls = [lambda: GeneratorList(elements).elements,
                 lambda: CoinSystem(elements).denominations,
                 lambda: FamilyParams(*params).a,
                 lambda: greedy_count([1, *elements], amount),
                 lambda: opt_count([1, *elements], amount)]
        for call in calls:
            try:
                result = call()
            except (InvalidParamsError, OracleInfeasibleError):
                continue
            flat = result if isinstance(result, tuple) else (result,)
            assert all(type(x) is int for x in flat), result


HUGE = 3 * 2**100000 - 1  # 30104 decimal digits

# (label, call that raises with a huge value or a long text in its message)
HUGE_VALUES = [
    ("check_cap count", lambda: genus_closed(thabit(100000))),
    ("check_cap limit", lambda: _with_cap("9" * 4000, lambda: opt_count(
        [1, 3], 10**5000))),
    ("check_int bound", lambda: GridSpec(a_range=(-HUGE, 60))),
    ("check_int low", lambda: GridSpec(a_range=(HUGE, 60))),
    ("check_int non-int", lambda: mersenne("7" * 100000)),
    ("parse_int text", lambda: parse_int("7" * 100000 + "x", "value")),
    ("parse_int cap setting", lambda: _with_cap("x" * 100000, residue_cap)),
    ("FamilyParams gcd", lambda: FamilyParams(2 * HUGE, 2, 2 * HUGE + 2, 1)),
    ("GeneratorList gcd", lambda: GeneratorList([2 * HUGE, 4 * HUGE])),
    ("residue_minimum r", lambda: residue_minimum(thabit(100000), HUGE)),
    ("gu_ze_tang m", lambda: gu_ze_tang(400, 2**400 + 1)),
    ("GreedyPresentation length", lambda: GreedyPresentation(2, HUGE, (1,))),
]


def _with_cap(setting, call):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("SEMIGROUP_ORACLE_CAP", setting)
        return call()


@pytest.mark.parametrize("call", [c for _, c in HUGE_VALUES],
                         ids=[label for label, _ in HUGE_VALUES])
def test_error_texts_stay_short(call):
    # an int wider than 64 bits shows its size, and a long text its start
    with pytest.raises((InvalidParamsError, OracleInfeasibleError)) as err:
        call()
    assert len(str(err.value)) <= 500, str(err.value)[:1000]
    assert re.search(r"integer of \d+ bits>|\d characters>", str(err.value))


@pytest.mark.parametrize("digits, text", [
    ((3,) * 10**5, "non-top digits must be <= 2: position 1 holds 3"),
    ((1, 2, *[0] * (10**5 - 2)),
     "digit b at position 2 forces lower digits to zero: position 1 holds 1"),
], ids=["digit above b", "digit b above a nonzero digit"])
def test_digit_rule_refusals_stay_short(digits, text):
    # the refusal names the first bad position, not the 10^5 digits
    with pytest.raises(InvalidParamsError) as err:
        GreedyPresentation(2, 10**5, digits)
    assert str(err.value) == text
    assert len(str(err.value)) <= 500


def test_integers_up_to_64_bits_show_in_full():
    for value in (-2**63, 2**64 - 1, -(2**64 - 1)):
        with pytest.raises(InvalidParamsError, match=rf"got {value}$"):
            GridSpec(a_range=(2**70, value))
    with pytest.raises(InvalidParamsError,
                       match=re.escape("got <negative integer of 65 bits>")):
        thabit(-2**64)
    with pytest.raises(OracleInfeasibleError,
                       match=re.escape("<integer of 100002 bits> residue "
                                       "classes exceed the cap 10000000;")):
        _with_cap("10000000", lambda: genus_closed(thabit(100000)))


def test_cli_error_text_of_a_huge_member(capsys):
    started = time.perf_counter()
    code = main(["family", "thabit", "--n", "100000"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert len(captured.err) < 500
    assert "<integer of 100002 bits> residue classes" in captured.err
    code = main(["frobenius", "--a", "1" * 200000 + "x", "--b", "2",
                 "--d", "1", "--k", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert len(captured.err) < 1000  # the usage line, then the message
    assert "<200001 characters>" in captured.err
    assert time.perf_counter() - started < 1.0
