"""The result records are NamedTuples.

Every value that a physics entry returns is one of five records built by
``typing.NamedTuple``: ``SiteCoefficients``, ``AmplitudeSet``,
``ObservableSet``, ``UnitPhase`` and ``OptimalityReport``.  These checks hold
them to that contract: positional and keyword construction, ``TypeError`` on
a bad argument list, ``_replace``, equality, hashing and ``repr`` of a
rebuilt record, pickling and copying, unpacking, and immutable,
``__dict__``-free instances.  ``dataclasses.fields`` and
``dataclasses.replace`` take them too, as they did when some were
dataclasses.

They import only the standard library and entscat, which loads no numpy at
one point, so they also run as a script on an interpreter that has neither
numpy nor pytest:

    PYTHONPATH=src python3.13 tests/test_records.py
"""

import copy
import dataclasses
import inspect
import pickle

from entscat import (
    AmplitudeSet,
    DimensionlessPoint,
    ModelKind,
    ObservableSet,
    OptimalityReport,
    SiteCoefficients,
    UnitPhase,
    amplitudes,
    observables_at,
    optimal_concurrence,
    site_coefficients,
    unit_concurrence_phase,
)

XY, HEIS = ModelKind.SPIN_EXCHANGE, ModelKind.HEISENBERG_CONTACT
RECORD_TYPES = (SiteCoefficients, AmplitudeSet, ObservableSet, UnitPhase, OptimalityReport)
RECORDS = (
    site_coefficients(1.0, HEIS),
    amplitudes(DimensionlessPoint(1.0, 2.0, 0.5, HEIS)),
    observables_at(DimensionlessPoint(1.0, 2.0, 0.5, HEIS)),
    observables_at(DimensionlessPoint(0.0, 0.0, 0.5, XY)),  # C and a are None
    unit_concurrence_phase(0.5, 2.0),
    unit_concurrence_phase(0.0, 2.0),  # sin2_kd is None
    optimal_concurrence(0.5, 2.0),  # reason is None
    optimal_concurrence(0.1, 2.0),
)


def raises(error, call, *args, **kwargs) -> bool:
    try:
        call(*args, **kwargs)
    except error:
        return True
    return False


def test_every_result_record_is_a_named_tuple():
    assert {type(record) for record in RECORDS} == set(RECORD_TYPES)
    for cls in RECORD_TYPES:
        assert issubclass(cls, tuple) and cls._fields == tuple(cls.__annotations__)
        assert not cls.__doc__.startswith(f"{cls.__name__}(")  # its own docstring, not namedtuple's


def test_positional_and_keyword_construction():
    for record in RECORDS:
        cls, fields = type(record), record._asdict()
        args, names = list(record), list(record._fields)
        assert list(inspect.signature(cls).parameters) == names
        assert cls(*args) == record and cls._make(args) == record
        assert cls(**fields) == record
        assert cls(*args[:2], **{name: fields[name] for name in names[2:]}) == record


def test_a_missing_or_extra_argument_raises_type_error():
    for record in RECORDS:
        cls, fields = type(record), record._asdict()
        args = list(record)
        assert raises(TypeError, cls, *args[:-1])
        assert raises(TypeError, cls, *args, 0.0)
        assert raises(TypeError, cls, **fields, extra=0.0)
        assert raises(TypeError, cls, args[0], **fields)  # a field given twice
        assert raises(TypeError, cls)
        assert raises(TypeError, cls._make, args[:-1])
        assert raises((TypeError, ValueError), record._replace, extra=0.0)  # ValueError before Python 3.13


def test_replace_equality_hash_and_repr_match_a_rebuilt_record():
    for record in RECORDS:
        first = record._fields[0]
        replaced = record._replace(**{first: -1.0})._replace(**{first: getattr(record, first)})
        built = type(record)(*record)
        for other in (replaced, built):
            assert type(other) is type(record)
            assert other == record and hash(other) == hash(record) and repr(other) == repr(record)
        assert record._replace(**{first: -1.0}) != record


def test_dataclasses_fields_and_replace_take_a_record():
    for record in RECORDS:
        assert tuple(f.name for f in dataclasses.fields(record)) == record._fields
        first = record._fields[0]
        replaced = dataclasses.replace(record, **{first: -1.0})
        assert type(replaced) is type(record) and replaced == record._replace(**{first: -1.0})
        assert dataclasses.replace(record) == record
        assert raises(TypeError, dataclasses.replace, record, extra=0.0)


def test_a_record_unpacks_and_equals_the_tuple_of_its_values():
    for record in RECORDS:
        first, *rest = record
        assert first == getattr(record, record._fields[0]) and len(rest) == len(record._fields) - 1
        assert record == tuple(record._asdict().values()) and hash(record) == hash(tuple(record))


def test_pickle_and_copy_round_trip():
    for record in RECORDS:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert type(back) is type(record) and back == record and repr(back) == repr(record)
        for back in (copy.copy(record), copy.deepcopy(record)):
            assert type(back) is type(record) and back == record


def test_set_and_del_raise_attribute_error_and_there_is_no_dict():
    for record in RECORDS:
        assert not hasattr(record, "__dict__") and type(record).__slots__ == ()
        for name in record._fields:
            assert raises(AttributeError, setattr, record, name, 0.25)
            assert raises(AttributeError, delattr, record, name)
        assert raises(AttributeError, setattr, record, "extra", 0.25)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
