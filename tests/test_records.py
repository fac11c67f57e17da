"""The contract of the package's public immutable records.

Each record is built positionally and by keyword, compares equal only to a
record of its own class, hashes as the tuple of its fields, prints as
``Name(field=value, ...)``, refuses assignment and deletion, and survives
``copy``, ``deepcopy`` and ``pickle`` unchanged.
"""

import copy
import pickle

import pytest

from sylsum.exactnum import QQ, zeta
from sylsum.oracle import VerificationReport
from sylsum.semigroup import AperySet, GapSet, GeneratorSet
from sylsum.sums import Formula, SumRequest, SumResult, ThreeVarContext

A = GeneratorSet((3, 8))
Z4 = zeta(4)
REQUEST = SumRequest(A, 1, Z4)
VALUE = -8 + 12 * Z4

# (class, positional arguments, every field and its value in order, repr);
# the arguments bind to the leading fields, the rest are defaults or derived
CASES = [
    pytest.param(GeneratorSet, ((3, 8),), {"gens": (3, 8)}, "GeneratorSet(gens=(3, 8))", id="GeneratorSet"),
    pytest.param(
        AperySet, (3, (0, 16, 8)), {"pivot": 3, "reps": (0, 16, 8)},
        "AperySet(pivot=3, reps=(0, 16, 8))", id="AperySet",
    ),
    pytest.param(
        GapSet, ((1, 2, 4, 5, 7, 10, 13),), {"gaps": (1, 2, 4, 5, 7, 10, 13)},
        "GapSet(gaps=(1, 2, 4, 5, 7, 10, 13))", id="GapSet",
    ),
    pytest.param(
        SumRequest, (A, 1, 2), {"A": A, "mu": 1, "lam": QQ.from_rational(2)},
        "SumRequest(A=GeneratorSet(gens=(3, 8)), mu=1, lam=<2 in Q>)", id="SumRequest",
    ),
    pytest.param(
        SumResult, (QQ.from_rational(117866), Formula.GENERAL),
        {"value": QQ.from_rational(117866), "formula_used": Formula.GENERAL, "pivot_used": None},
        "SumResult(value=<117866 in Q>, formula_used=<Formula.GENERAL: 'general_thm1'>, "
        "pivot_used=None)",
        id="SumResult",
    ),
    pytest.param(
        ThreeVarContext, (6, 9, 10),
        {"a": 6, "b": 9, "c": 10, "gcd_ab": 3, "gcd_ac": 2, "lcm_ab": 18, "lcm_ac": 30},
        "ThreeVarContext(a=6, b=9, c=10, gcd_ab=3, gcd_ac=2, lcm_ab=18, lcm_ac=30)",
        id="ThreeVarContext",
    ),
    pytest.param(
        VerificationReport, (REQUEST, VALUE, VALUE, True, Formula.GENERAL, 7),
        {
            "request": REQUEST, "formula_value": VALUE, "oracle_value": VALUE,
            "agrees": True, "formula_used": Formula.GENERAL, "gap_count": 7,
        },
        "VerificationReport(request=SumRequest(A=GeneratorSet(gens=(3, 8)), mu=1, "
        "lam=<zeta(4) in Q(zeta_4)>), formula_value=<-8+12*zeta(4) in Q(zeta_4)>, "
        "oracle_value=<-8+12*zeta(4) in Q(zeta_4)>, agrees=True, "
        "formula_used=<Formula.GENERAL: 'general_thm1'>, gap_count=7)",
        id="VerificationReport",
    ),
]


@pytest.mark.parametrize("cls, args, fields, text", CASES)
def test_record_contract(cls, args, fields, text):
    record = cls(*args)
    assert cls(**dict(zip(fields, args))) == record
    assert {name: getattr(record, name) for name in fields} == fields
    assert repr(record) == text

    values = tuple(fields.values())
    assert hash(record) == hash(values)
    assert record != values
    assert type("Other", (cls,), {})(*args) != record

    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == fields[name]

    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls
        assert clone == record
        assert hash(clone) == hash(record)


def test_derived_fields_cannot_be_passed():
    with pytest.raises(TypeError):
        ThreeVarContext(6, 9, 10, gcd_ab=3)


def test_record_members():
    assert list(A) == [3, 8] and len(A) == 2 and 8 in A and 5 not in A and A.min == 3
    gaps = GapSet((1, 2, 4))
    assert list(gaps) == [1, 2, 4] and len(gaps) == 3 and 4 in gaps and 3 not in gaps
    assert AperySet(3, (0, 16, 8)).gap_counts == (0, 5, 2)
