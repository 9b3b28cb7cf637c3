"""Value semantics of the result and density records.

The records are plain slotted classes, not dataclasses, so that a cold
command does not import `dataclasses`; these tests pin that they still
behave as frozen dataclasses did: equality, hash and repr over the declared
fields, pickling and deep copies that round-trip, and no assignment.
"""

import copy
import dataclasses
import pickle

import pytest

import benfold as bf
import benfold.cli as cli
import benfold.density as density
import benfold.oracle as oracle

# record builder -> the declared fields, in constructor order
RECORDS = {
    "BoundReport": (
        lambda: bf.BoundReport("tv_scaled", 0.25, ["route", "flags"], n=2.5),
        ("method", "value", "hypotheses_verified", "n", "b"),
    ),
    "ExactUniformParams": (
        lambda: bf.ExactUniformParams(10, 3),
        ("b", "a", "x", "u", "t0"),
    ),
    "TableRow": (
        lambda: cli.table(10.0, (3,))[0],
        ("n", "exact", "tv_bound", "fourier_bound"),
    ),
    "Segment": (
        lambda: bf.uniform_log_density(10).segments[0],
        ("lo", "hi", "base", "monotone", "kind", "params"),
    ),
    "PiecewiseDensity": (
        lambda: bf.triangular_density(0, 1, 2),
        ("segments",),
    ),
    "QuadratureConfig": (
        lambda: bf.QuadratureConfig(abs_tol=1e-9, breakpoints=[0.5]),
        ("abs_tol", "breakpoints"),
    ),
    "OracleResult": (
        lambda: bf.delta_numeric(bf.uniform_log_density(10), 3),
        ("value", "error_estimate", "method", "detail"),
    ),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    build, fields = RECORDS[request.param]
    rec = build()
    assert type(rec).__name__ == request.param
    return build, fields, rec


def test_equality_and_hash_cover_the_fields(record):
    build, fields, rec = record
    twin = build()
    assert twin is not rec
    assert twin == rec and hash(twin) == hash(rec)
    assert hash(rec) == hash(tuple(getattr(rec, name) for name in fields))
    assert rec != object() and rec != tuple(getattr(rec, name) for name in fields)


def test_repr_lists_the_fields_as_a_dataclass_did(record):
    _, fields, rec = record
    body = ", ".join(f"{name}={getattr(rec, name)!r}" for name in fields)
    assert repr(rec) == f"{type(rec).__qualname__}({body})"
    assert "_masses" not in repr(rec)


@pytest.mark.parametrize(
    "clone", (lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy, copy.copy)
)
def test_pickle_and_copies_round_trip(record, clone):
    _, fields, rec = record
    got = clone(rec)
    assert type(got) is type(rec)
    assert got == rec and hash(got) == hash(rec) and repr(got) == repr(rec)
    for name in type(rec).__slots__:  # cached internals come back too
        assert getattr(got, name) == getattr(rec, name)


def test_assignment_raises_attribute_error(record):
    _, fields, rec = record
    before = repr(rec)
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], None)
    with pytest.raises(AttributeError):
        rec.unknown = 1
    with pytest.raises(AttributeError):
        delattr(rec, fields[0])
    assert repr(rec) == before


def test_cached_internals_stay_out_of_equality():
    f = bf.uniform_density(0, 2)
    assert f.segment_masses == (1.0,)
    assert f == bf.PiecewiseDensity(f.segments)


def test_records_with_different_fields_differ():
    assert bf.ExactUniformParams(10, 3) != bf.ExactUniformParams(10, 4)
    assert bf.QuadratureConfig() != bf.QuadratureConfig(abs_tol=1e-9)
    assert bf.exp_segment(0, 1, 1.0, 0.5) != bf.exp_segment(0, 1, 1.0, 0.25)
    # equal fields in another record type are not equal
    assert bf.OracleResult(0.1, 0.0, "m") != bf.BoundReport("tv_quarter", 0.1, ())


def test_exact_params_take_b_and_a_only():
    p = bf.ExactUniformParams(10, 3)
    assert (p.b, p.a) == (10.0, 3.0)
    with pytest.raises(TypeError):
        bf.ExactUniformParams(10, 3, 2.0)
    with pytest.raises(TypeError):
        bf.ExactUniformParams(b=10, a=3, x=2.0)


def test_folded_density_is_a_dataclass_in_the_oracle():
    assert bf.fold_mod1 is oracle.fold_mod1 and bf.FoldedDensity is oracle.FoldedDensity
    assert not hasattr(density, "fold_mod1") and not hasattr(density, "FoldedDensity")
    folded = bf.fold_mod1(bf.uniform_log_density(10))
    twin = dataclasses.replace(folded, fn=folded.fn)
    assert twin == folded and twin(0.3) == folded(0.3)
    doubled = dataclasses.replace(folded, fn=lambda t: 2.0 * folded.fn(t))
    assert doubled.route == "closed-form"
    assert doubled(0.3) == 2.0 * folded(0.3)
