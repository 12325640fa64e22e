"""The package's result types are immutable records, built, compared and shown by their fields.

Each type names its fields in order.  A record is built from one
positional or keyword argument per field, refuses to be changed, equals
a record of its own type with equal fields, copies and pickles whole,
and shows every field in its repr, except that an EmpiricalReport
neither compares nor shows the batch it carries.
"""

import copy
import pickle

import pytest

from conftest import weight_markov_full
from shiftpath import (
    Decomposition,
    EmpiricalReport,
    ErgodicityReport,
    FixedFunctionResult,
    MartingaleCoordinates,
    SampleBatch,
    build_path_measure,
    empirical_check,
    fixed_density_measure,
    iterate_fixed_function,
    sample_paths,
)
from shiftpath.invariant import Chain

FIELDS = {
    Chain: ("indptr", "indices", "data"),
    FixedFunctionResult: ("h", "n_used", "status", "residual"),
    SampleBatch: ("shift", "base_depth", "n_steps", "base_words", "prepends"),
    EmpiricalReport: ("n", "n_samples", "depth", "max_dev", "sigma_bound", "passed",
                      "worst_word", "batch"),
    MartingaleCoordinates: ("pm", "level", "depth", "coordinates"),
    ErgodicityReport: ("depth", "solution_dim", "basis", "extremal_certificate", "class_sizes",
                       "base_residual"),
    Decomposition: ("weights", "densities", "components", "report"),
}
# the fields that neither compare nor show
HIDDEN = {EmpiricalReport: ("batch",)}

each_type = pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)


def tokens(cls):
    """One distinct value per field of cls, equal only to itself."""
    return [object() for _ in FIELDS[cls]]


@each_type
def test_positional_and_keyword_construction_give_the_same_fields(cls):
    values = tokens(cls)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(FIELDS[cls], values)))
    by_both = cls(values[0], **dict(zip(FIELDS[cls][1:], values[1:])))
    for record in (by_position, by_keyword, by_both):
        assert [getattr(record, name) for name in FIELDS[cls]] == values
        assert record == by_position


@each_type
def test_construction_needs_each_field_once(cls):
    values, names = tokens(cls), FIELDS[cls]
    for args, kwargs in [
        (values[:-1], {}),
        ([*values, object()], {}),
        (values, {names[0]: object()}),
        (values, {"no_such_field": object()}),
    ]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@each_type
def test_fields_are_neither_set_nor_deleted(cls):
    values = tokens(cls)
    record = cls(*values)
    for name in (*FIELDS[cls], "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, object())
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in FIELDS[cls]] == values


@each_type
def test_equality_compares_the_fields(cls):
    values = tokens(cls)
    record = cls(*values)
    for i, name in enumerate(FIELDS[cls]):
        other = cls(*values[:i], object(), *values[i + 1:])
        hidden = name in HIDDEN.get(cls, ())
        assert (record == other) is hidden and (record != other) is not hidden, name
        if hidden:
            assert hash(record) == hash(other)
    assert hash(record) == hash(cls(*values))
    assert record != tuple(values)


def test_records_of_two_types_differ():
    values = tokens(FixedFunctionResult)
    assert FixedFunctionResult(*values) != MartingaleCoordinates(*values)


@each_type
def test_repr_shows_the_fields_by_name(cls):
    values = list(range(len(FIELDS[cls])))
    shown = [f"{name}={value}" for name, value in zip(FIELDS[cls], values)
             if name not in HIDDEN.get(cls, ())]
    assert repr(cls(*values)) == f"{cls.__name__}({', '.join(shown)})"


@each_type
def test_copies_and_pickles_keep_every_field(cls):
    record = cls(*range(len(FIELDS[cls])))
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin is not record
        assert [getattr(twin, name) for name in FIELDS[cls]] == list(range(len(FIELDS[cls])))


def test_results_read_as_before(full2):
    """n_used and the batch length, read by the tracer, and a report's repr without its batch."""
    v = weight_markov_full(full2)
    result = iterate_fixed_function(full2, v)
    assert result.n_used == 1 and result.status == "converged"
    pm = build_path_measure(full2, v, fixed_density_measure(full2, v))
    batch = sample_paths(pm, 3, 250, 2, seed=1)
    assert len(batch) == 250 and batch.base_words.shape == (250, 2)
    report = empirical_check(pm, 2, 1000, 3, seed=5)
    assert len(report.batch) == 1000
    assert "batch" not in repr(report) and "SampleBatch" not in repr(report)
    assert repr(report).startswith("EmpiricalReport(n=2, n_samples=1000, depth=3, max_dev=")
    again = empirical_check(pm, 2, 1000, 3, seed=5)
    assert again == report and again.batch is not report.batch
    assert empirical_check(pm, 2, 1000, 3, seed=6) != report

