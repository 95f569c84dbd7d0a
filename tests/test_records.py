"""The record types keep the value semantics they had as frozen dataclasses:
repr, equality and hash, pickling and copying, pattern matching, and no
assignment or deletion after construction."""
import copy
import pickle

import pytest

from apery import AperySet, CoinSystem, FamilyParams, FamilySpec, \
    GeneratorList, GreedyPresentation, GridSpec, Mismatch, SemigroupReport, \
    VerifyReport
from apery.cli import OutputRecord


def _mismatch():
    return Mismatch((("a", 3),), "frobenius", 5, 6)


# each record type: a factory, the repr and __match_args__ that the frozen
# dataclass gave, and whether it is hashable (a dict field is not)
RECORDS = [
    (lambda: GeneratorList([7, 3, 5]), "GeneratorList(elements=(3, 5, 7))",
     ("elements",), True),
    (lambda: AperySet(3, [0, 7, 5]),
     "AperySet(modulus=3, minima=(0, 7, 5), generators=(7, 5))",
     ("modulus", "minima", "generators"), True),
    (lambda: SemigroupReport(4, 4, [4], 1, "oracle"),
     "SemigroupReport(frobenius=4, genus=4, pf=(4,), type=1, "
     "engine='oracle')",
     ("frobenius", "genus", "pf", "type", "engine"), True),
    (lambda: CoinSystem([1, 4, 3]), "CoinSystem(denominations=(1, 3, 4))",
     ("denominations",), True),
    (lambda: GreedyPresentation(2, 3, [1, 0, 2]),
     "GreedyPresentation(b=2, k=3, digits=(1, 0, 2))", ("b", "k", "digits"),
     True),
    (lambda: FamilyParams(7, 2, 1, 2), "FamilyParams(a=7, b=2, d=1, k=2)",
     ("a", "b", "d", "k"), True),
    (lambda: FamilySpec("thabit", {"n": 3}),
     "FamilySpec(name='thabit', params={'n': 3})", ("name", "params"), False),
    (lambda: GridSpec(),
     "GridSpec(a_range=(2, 60), b_range=(2, 5), d_range=(1, 5), "
     "k_range=(1, 4), check_pf=False, check_monotone=False)",
     ("a_range", "b_range", "d_range", "k_range", "check_pf",
      "check_monotone"), True),
    (_mismatch,
     "Mismatch(params=(('a', 3),), quantity='frobenius', closed_value=5, "
     "oracle_value=6)",
     ("params", "quantity", "closed_value", "oracle_value"), True),
    (lambda: VerifyReport(2, 1, [("gcd", 3)], [_mismatch()], [], 0.5),
     "VerifyReport(cases_run=2, cases_passed=1, skipped=(('gcd', 3),), "
     "mismatches=(Mismatch(params=(('a', 3),), quantity='frobenius', "
     "closed_value=5, oracle_value=6),), divergences=(), "
     "elapsed_seconds=0.5)",
     ("cases_run", "cases_passed", "skipped", "mismatches", "divergences",
      "elapsed_seconds"), True),
    (lambda: OutputRecord(frobenius=4, genus=4, pf=[4], type=1,
                          engine="oracle", input={"gens": [3, 5]},
                          apery=[0, 7, 5]),
     "OutputRecord(frobenius=4, genus=4, pf=(4,), type=1, engine='oracle', "
     "input={'gens': [3, 5]}, apery=(0, 7, 5), gaps=None)",
     ("frobenius", "genus", "pf", "type", "engine", "input", "apery", "gaps"),
     False),
]


@pytest.mark.parametrize("build, text, match_args, hashable", RECORDS,
                         ids=[text.partition("(")[0] for _, text, _, _ in
                              RECORDS])
class TestRecordType:
    def test_repr_and_match_args(self, build, text, match_args, hashable):
        record = build()
        assert repr(record) == text
        assert type(record).__match_args__ == match_args

    def test_equality_and_hash(self, build, text, match_args, hashable):
        record, twin = build(), build()
        assert record == twin and not record != twin
        assert record != object()
        if hashable:
            assert hash(record) == hash(twin)
            assert len({record, twin}) == 1
        else:
            with pytest.raises(TypeError):
                hash(record)

    @pytest.mark.parametrize("clone", [
        lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy])
    def test_copies_are_equal(self, build, text, match_args, hashable,
                              clone):
        record = build()
        duplicate = clone(record)
        assert type(duplicate) is type(record)
        assert duplicate == record
        assert repr(duplicate) == text

    def test_immutable(self, build, text, match_args, hashable):
        record = build()
        for name in match_args + ("other",):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert repr(record) == text

    def test_match_binds_the_fields(self, build, text, match_args, hashable):
        record = build()
        # a class pattern with one capture per field, as a dataclass allows
        pattern = ", ".join(f"v{i}" for i in range(len(match_args)))
        namespace = {"record": record, "cls": type(record)}
        exec(f"match record:\n    case cls({pattern}):\n"
             f"        found = ({pattern},)", namespace)
        assert namespace["found"] == tuple(getattr(record, name)
                                           for name in match_args)


def test_apery_set_equality_ignores_generators():
    given, default = AperySet(3, (0, 7, 5), (5, 7)), AperySet(3, (0, 7, 5))
    assert given.generators != default.generators
    assert given == default and hash(given) == hash(default)
    assert AperySet(3, (0, 4, 5)) != default


def test_output_record_is_not_its_report():
    fields = dict(frobenius=4, genus=4, pf=(4,), type=1, engine="oracle")
    report = SemigroupReport(**fields)
    record = OutputRecord(**fields, input={"gens": [3, 5]})
    assert record != report and report != record
    assert OutputRecord(**fields, input={}) != \
        OutputRecord(**fields, input={}, gaps=(1, 2))
