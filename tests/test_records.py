"""The record classes: defaults, checks, value semantics, repr, immutability
and pickling, class by class."""
from __future__ import annotations

import math
import pickle
from fractions import Fraction

import pytest

from gcdheights import (
    Curve,
    CzVerdict,
    DivisibilityReport,
    FactorBudget,
    Factorization,
    HomPoly,
    KindSpec,
    LogReal,
    PnPoint,
    Point,
    PolySystem,
    PrimeSet,
    SweepConfig,
    SweepKind,
    SweepResult,
    VojtaParams,
    parse_poly,
)
from gcdheights import experiments

X1_X0 = parse_poly("X1-X0")
BCZ = SweepConfig("BCZ", {"a": 2, "b": 3, "eps": 0.5, "n_max": 2})
BCZ_COLUMNS = ([1], [1], [0.0], [0.69], [0.35], [True], [None])
# a spec of module-level functions only, so that it pickles
SPEC = KindSpec(experiments._BCZRow, ("n",), (("a", experiments._int),),
                experiments._prepare_bcz, experiments._rows_bcz,
                experiments._summary_ar, math.exp)

# class: (a value, its constructor arguments, another value, a call with only
# the required arguments and the defaults it fills in, a call the class
# refuses with its error, and the repr of the value)
CASES = {
    LogReal: (LogReal(math.log(6), 6), (math.log(6), 6), LogReal(1.5),
              (lambda: LogReal(1.5), {"exact_arg": None}),
              (lambda: LogReal(1.0, 0), ValueError, "exact_arg must be a positive integer"),
              f"LogReal(value={math.log(6)!r}, exact_arg=6)"),
    PrimeSet: (PrimeSet([5, 2, 3, 2]), ((2, 3, 5),), PrimeSet([2]),
               (PrimeSet, {"primes": ()}),
               (lambda: PrimeSet([2, 4]), ValueError, "not a prime: 4"),
               "PrimeSet(primes=(2, 3, 5))"),
    FactorBudget: (FactorBudget(100), (100, 10**6), FactorBudget(),
                   (FactorBudget, {"trial_bound": 10**6, "rho_iterations": 10**6}),
                   (lambda: FactorBudget(1, 2, 3), TypeError, "positional argument"),
                   "FactorBudget(trial_bound=100, rho_iterations=1000000)"),
    Factorization: (Factorization(((2, 3),), -1, True), (((2, 3),), -1, True, 1),
                    Factorization(((2, 3),), 1, True),
                    (lambda: Factorization((), 1, False), {"cofactor": 1}),
                    (lambda: Factorization(()), TypeError, "missing"),
                    "Factorization(factors=((2, 3),), sign=-1, complete=True, cofactor=1)"),
    Curve: (Curve(0, 0, 1, -1, 0), (0, 0, 1, -1, 0), Curve(0, 1, 1, -2, 0),
            (lambda: Curve(a6=1), {"a1": 0, "a2": 0, "a3": 0, "a4": 0}),
            (Curve, ValueError, "singular curve: discriminant is zero"),
            "Curve(a1=0, a2=0, a3=1, a4=-1, a6=0)"),
    Point: (Point(3, 5), (Fraction(3), Fraction(5)), Point(Fraction(1, 4), Fraction(1, 8)),
            (Point, {"x": None, "y": None}),
            (lambda: Point(Fraction(1, 2), 1), ValueError, "non-integral model pathology"),
            "Point(x=Fraction(3, 1), y=Fraction(5, 1))"),
    PnPoint: (PnPoint((1, -2, 3)), ((1, -2, 3),), PnPoint((1, 2, 3)),
              (lambda: PnPoint((1,)), {}),
              (lambda: PnPoint((2, 4)), ValueError, "coordinates not primitive"),
              "PnPoint(coords=(1, -2, 3))"),
    HomPoly: (X1_X0, (((-1, ((0, 1),)), (1, ((1, 1),))),), parse_poly("X2-X0"),
              (lambda: HomPoly(()), {}),
              (HomPoly, TypeError, "missing"),
              "HomPoly(terms=((-1, ((0, 1),)), (1, ((1, 1),))))"),
    PolySystem: (PolySystem.of("X1-X0"), ((X1_X0,),), PolySystem.of("X2-X0"),
                 (lambda: PolySystem((X1_X0,)), {}),
                 (lambda: PolySystem(()), ValueError, "system needs at least one polynomial"),
                 f"PolySystem(polys=({X1_X0!r},))"),
    VojtaParams: (VojtaParams(0.5, 2.0, 1.0, 3), (0.5, 2.0, 1.0, 3), VojtaParams(0.5),
                  (lambda: VojtaParams(0.5), {"delta": 1.0, "C": 0.0, "r": 2}),
                  (lambda: VojtaParams(0.5, C=math.nan), ValueError, "C must not be NaN"),
                  "VojtaParams(epsilon=0.5, delta=2.0, C=1.0, r=3)"),
    CzVerdict: (CzVerdict("POWER_RELATION", 1, 2, 3, 1.0, 2.0, True),
                ("POWER_RELATION", 1, 2, 3, 1.0, 2.0, True),
                CzVerdict("EXCEPTIONAL", None, None, 3, 1.0, 0.5, False),
                (lambda: CzVerdict("EXCEPTIONAL", None, None, 3, 1.0, 0.5, False), {}),
                (lambda: CzVerdict("EXCEPTIONAL"), TypeError, "missing"),
                "CzVerdict(kind='POWER_RELATION', m=1, n=2, gcd=3, lhs=1.0, rhs=2.0, "
                "holds=True)"),
    DivisibilityReport: (DivisibilityReport(False, (2, 4)), (False, (2, 4)),
                         DivisibilityReport(True, None),
                         (lambda: DivisibilityReport(True, None), {}),
                         (lambda: DivisibilityReport(True), TypeError, "missing"),
                         "DivisibilityReport(ok=False, counterexample=(2, 4))"),
    SweepConfig: (BCZ, (SweepKind.BCZ, BCZ.parameters, 0), SweepConfig("BCZ", {}, 1),
                  (lambda: SweepConfig("AR_RETURNS", {}), {"seed": 0}),
                  (lambda: SweepConfig("NOPE", {}), ValueError, "'NOPE' is not a valid"),
                  "SweepConfig(kind=<SweepKind.BCZ: 'BCZ'>, parameters={'a': 2, 'b': 3, "
                  "'eps': 0.5, 'n_max': 2}, seed=0)"),
    SweepResult: (SweepResult(BCZ, BCZ_COLUMNS, {"cells": 1}), (BCZ, BCZ_COLUMNS, {"cells": 1}),
                  SweepResult(BCZ, ([],) * 7, {"cells": 0}),
                  (lambda: SweepResult(BCZ, ([],) * 7, {}), {}),
                  (lambda: SweepResult(BCZ), TypeError, "missing"),
                  f"SweepResult(config={BCZ!r}, columns={BCZ_COLUMNS!r}, summary={{'cells': 1}})"),
    KindSpec: (SPEC, tuple(SPEC), SPEC._replace(index=("m",)),
               (lambda: KindSpec(*SPEC[:6]), {"C_of_fit": KindSpec._field_defaults["C_of_fit"]}),
               (lambda: KindSpec(*SPEC[:4]), TypeError, "missing"),
               "KindSpec(Row=<class 'gcdheights.experiments._BCZRow'>, index=('n',), "
               f"params=(('a', {experiments._int!r}),), prepare={experiments._prepare_bcz!r}, "
               f"rows={experiments._rows_bcz!r}, "
               f"summary={experiments._summary_ar!r}, C_of_fit={math.exp!r})"),
}
IDS = [cls.__name__ for cls in CASES]
# a dict or a list among their values: these have no hash
UNHASHABLE = {SweepConfig, SweepResult}


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_defaults_fill_the_omitted_arguments(cls):
    make, defaults = CASES[cls][3]
    value = make()
    assert type(value) is cls
    assert {k: getattr(value, k) for k in defaults} == defaults


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_construction_checks(cls):
    make, exc, message = CASES[cls][4]
    with pytest.raises(exc, match=message):
        make()


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_equal_and_hashed_by_value(cls):
    value, args, other = CASES[cls][:3]
    twin = cls(*args)
    assert twin is not value and twin == value and not twin != value
    assert tuple(twin) == args
    assert other != value
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(twin) == hash(value)
        assert len({value, twin, other}) == 2


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_repr(cls):
    assert repr(CASES[cls][0]) == CASES[cls][5]


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_assignment_is_refused(cls):
    value = CASES[cls][0]
    before = tuple(value)
    for name in [*cls._fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, cls._fields[0])
    assert tuple(value) == before


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_pickle_round_trip(cls):
    value = CASES[cls][0]
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is cls and back == value and repr(back) == repr(value)


def test_prime_set_checks_in_a_wrapped_init(monkeypatch):
    # a profiler wraps PrimeSet.__init__ and calls it with the constructor's
    # arguments; the wrapped class must still sort and check
    calls = []
    init = PrimeSet.__init__

    def traced(self, *args, **kwargs):
        calls.append(args)
        return init(self, *args, **kwargs)

    monkeypatch.setattr(PrimeSet, "__init__", traced)
    assert PrimeSet([3, 2]).primes == (2, 3)
    with pytest.raises(ValueError, match="not a prime: 9"):
        PrimeSet([9])
    assert calls == [([3, 2],), ([9],)]


def test_sweep_result_builds_its_records_from_its_columns():
    # records is read-only, and each read builds the rows afresh
    result = CASES[SweepResult][0]
    assert result.records == [experiments._BCZRow(1, 1, 0.0, 0.69, 0.35, True)]
    assert type(result.records[0]) is experiments._BCZRow
    assert result.records is not result.records
    with pytest.raises(AttributeError):
        result.records = []
    assert SweepResult(BCZ, ([],) * 7, {}).records == []
