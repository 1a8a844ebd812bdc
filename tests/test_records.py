"""The public records: immutable values that print, compare, hash and pickle.

Every record is a NamedTuple except SpinSystem, a slotted class; both keep
the text, the equality and the immutability of the frozen records they
replace.
"""
from __future__ import annotations

import math
import pickle

import pytest

from spindecay.core import BLUE, GREEN, SpinSystem, classify
from spindecay.errors import GraphFormatError, InvalidParameterError
from spindecay.estimator import approx_partition, bounds, decay_curve
from spindecay.graphs import Boundary, Graph, dumps, loads, path
from spindecay.oracle import exact_marginal, exact_partition
from spindecay.saw import Depth, MBased
from spindecay.uniqueness import (
    ThresholdReport,
    contraction_bound,
    derivative_unit_roots,
    find_non_monotone_witness,
    fixed_point,
    hardcore_threshold,
    is_unique_up_to,
    soft_thresholds,
)

S = SpinSystem(0.2, 1.0, 1.0)
UNIQUE = SpinSystem(0.2, 4.0, 1.0)  # at every degree
P3 = path(3)

_RECORDS = {
    "SpinSystem": lambda: S,
    "Classification": lambda: classify(SpinSystem(3.0, 0.2, 2.0)),
    "Graph": lambda: P3,
    "Boundary": lambda: Boundary(fixed={0: BLUE, 2: GREEN}, S={2}),
    "Instance": lambda: loads(dumps(P3, Boundary(fixed={0: BLUE}), S)),
    "Depth": lambda: Depth(3),
    "MBased": lambda: MBased(2.5, 4),
    "MarginalBounds": lambda: bounds(P3, S, 1, policy=Depth(2)),
    "PartitionEstimate": lambda: approx_partition(P3, S, 0.1),
    "DecayPoint": lambda: decay_curve(P3, S, 1, t_max=2)[2],
    "ExactResult": lambda: exact_partition(P3, S),
    "ExactMarginal": lambda: exact_marginal(P3, S, 1),
    "FixedPointResult": lambda: fixed_point(S, 3),
    "UniquenessResult": lambda: is_unique_up_to(UNIQUE, math.inf),
    "ContractionBound": lambda: contraction_bound(S, 5),
    "ThresholdReport": lambda: soft_thresholds(0.1, 1.0, 5),
    "DerivativeUnitRoots": lambda: derivative_unit_roots(0.1, 1.0, 4),
    "NonMonotoneWitness": find_non_monotone_witness,
}


def _fields(record):
    return ("beta", "gamma", "lam") if isinstance(record, SpinSystem) else record._fields


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_records_are_immutable_values(name):
    record = _RECORDS[name]()
    assert type(record).__name__ == name
    fields = _fields(record)
    assert repr(record) == f"{name}({', '.join(f'{f}={getattr(record, f)!r}' for f in fields)})"
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record and not copy != record
    # a dict field (a Graph holds one) makes the record unhashable, as it
    # made the frozen dataclass
    if any(isinstance(getattr(record, f), (dict, Graph)) for f in fields):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(copy) == hash(record)
    for attr in (fields[0], "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(record, attr, 0)
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("build", [
    lambda: SpinSystem(-1, 1, 1),
    lambda: Depth(-1),
    lambda: MBased(1.0, 1),
    lambda: Boundary(fixed={0: BLUE}, S={1}),
    # _replace builds through _make, which runs the same checks
    lambda: Depth(3)._replace(t=-1),
    lambda: MBased(2.5, 4)._replace(m=1.0),
    lambda: Boundary(fixed={0: BLUE})._replace(S={1}),
])
def test_records_check_their_fields_however_built(build):
    with pytest.raises((InvalidParameterError, GraphFormatError)):
        build()


def test_the_system_prints_and_compares_as_before():
    assert repr(S) == "SpinSystem(beta=0.2, gamma=1.0, lam=1.0)"
    assert S == SpinSystem(0.2, 1.0, 1.0) and S != SpinSystem(0.2, 1.0, 2.0)
    assert S != (0.2, 1.0, 1.0)  # a class of its own, not a tuple
    with pytest.raises(AttributeError):
        del S.beta


def test_results_are_tuples_of_their_fields():
    assert Depth(3) == (3,) and tuple(MBased(2.5, 4)) == (2.5, 4)
    assert bool(is_unique_up_to(UNIQUE, math.inf)) is True
    for bad in (is_unique_up_to(S, math.inf), is_unique_up_to(SpinSystem(0.0, 1.0, 4.1), 3)):
        assert bool(bad) is bad.unique is False


def test_defaults_are_fresh_dicts():
    g1, g2 = Graph(1, ((),)), Graph(1, ((),))
    assert g1.lambda_v == {} and g1.lambda_v is not g2.lambda_v
    assert Boundary().fixed == {} and Boundary().fixed is not Boundary().fixed
    assert Boundary().S == frozenset() and Boundary(fixed={1: BLUE}, S=[1]).S == {1}
    r1, r2 = hardcore_threshold(1.0, 4), hardcore_threshold(1.0, 4)
    assert r1.extras == {} and r1.extras is not r2.extras
    assert ThresholdReport("k", (), 3).extras is not ThresholdReport("k", (), 3).extras
