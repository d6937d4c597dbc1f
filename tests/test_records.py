"""The package's result records: names, field order, repr, construction,
equality, hashing and immutability.

Each record is pinned by its field names in order, one instance and that
instance's repr, so a change of representation cannot change what callers
see.
"""

import pytest

from hilbertdepth import (
    BetaTable,
    CoeffTable,
    FunctionSpec,
    InvalidQuotientError,
    QDepthResult,
    SquarefreeIdeal,
    SquarefreeQuotient,
    VerificationReport,
    Violation,
)

TABLE = BetaTable(2, 0, (1, 2, 1))
IDEAL = SquarefreeIdeal(2, frozenset({1}))
ZERO = SquarefreeIdeal(2, frozenset())
UNIT = SquarefreeIdeal(2, frozenset({0}))

# (record class, field names in order, field values, repr of that instance)
RECORDS = [
    (BetaTable, ("d", "start_k", "values"), (2, 0, (1, 2, 1)),
     "BetaTable(d=2, start_k=0, values=(1, 2, 1))"),
    (QDepthResult,
     ("qdepth", "certificate", "lower_bound", "upper_bound", "refutation"),
     (2, TABLE, 0, 3, (3, 1, -1)),
     "QDepthResult(qdepth=2, certificate=BetaTable(d=2, start_k=0, "
     "values=(1, 2, 1)), lower_bound=0, upper_bound=3, refutation=(3, 1, -1))"),
    (FunctionSpec, ("op", "args"), ("poly", (3,)),
     "FunctionSpec(op='poly', args=(3,))"),
    (CoeffTable, ("n", "kmax", "jmax", "rows"), (2, 1, 1, ((2, 0),)),
     "CoeffTable(n=2, kmax=1, jmax=1, rows=((2, 0),))"),
    (Violation, ("case", "expected", "actual"), ("n=1", "1", "2"),
     "Violation(case='n=1', expected='1', actual='2')"),
    (VerificationReport, ("battery", "cases_run", "violations", "elapsed"),
     ("polyring", 3, (), 0.0),
     "VerificationReport(battery='polyring', cases_run=3, violations=(), "
     "elapsed=0.0)"),
    (SquarefreeIdeal, ("n", "generators"), (2, frozenset({1})),
     "SquarefreeIdeal(n=2, generators=frozenset({1}))"),
    (SquarefreeQuotient, ("n", "upper", "lower"), (2, UNIT, IDEAL),
     "SquarefreeQuotient(n=2, upper=SquarefreeIdeal(n=2, "
     "generators=frozenset({0})), lower=SquarefreeIdeal(n=2, "
     "generators=frozenset({1})))"),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_repr_and_field_order(cls, names, values, text):
    record = cls(*values)
    assert repr(record) == text
    assert tuple(getattr(record, name) for name in names) == values


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, names, values, text):
    assert cls(*values) == cls(**dict(zip(names, values)))


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(cls, names, values, text):
    record = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("cls, values", [
    (BetaTable, (2, 0, (1, 2, 1))),
    (QDepthResult, (2, TABLE, 0, 2, None)),
    (SquarefreeIdeal, (2, frozenset({1, 2}))),
])
def test_equal_fields_give_equal_records_and_hashes(cls, values):
    a, b = cls(*values), cls(*values)
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_report_defaults_are_immutable():
    a = VerificationReport("polyring", 0)
    b = VerificationReport("ci", 0)
    assert a.violations == b.violations == ()
    assert a.elapsed == 0.0
    assert a.passed
    # The default is a tuple, so no report can change what another holds.
    with pytest.raises(AttributeError):
        a.violations.append(Violation("n=1", "1", "2"))
    assert b.violations == ()


@pytest.mark.parametrize("upper, lower, message", [
    (UNIT, SquarefreeIdeal(3, frozenset()), "different variable counts"),
    (ZERO, ZERO, "outer ideal is zero"),
    (IDEAL, UNIT, "not in the outer ideal"),
    (IDEAL, IDEAL, "equal"),
])
def test_invalid_quotient_raises_with_keywords(upper, lower, message):
    with pytest.raises(InvalidQuotientError, match=message):
        SquarefreeQuotient(n=2, upper=upper, lower=lower)
    with pytest.raises(InvalidQuotientError, match=message):
        SquarefreeQuotient(2, upper, lower)
    valid = SquarefreeQuotient(2, UNIT, IDEAL)
    with pytest.raises(InvalidQuotientError, match=message):
        valid._replace(upper=upper, lower=lower)
