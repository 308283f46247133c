"""The query records behave as frozen slotted dataclasses.

``ObservableSet`` and ``OptimalityReport`` store each field through its
slot's member descriptor (``core._slot_init``) rather than through the
``__init__`` that ``dataclass(frozen=True)`` writes.  These checks hold them
to everything that ``__init__`` gave: positional and keyword construction,
``TypeError`` on a bad argument list, equality, hashing, ``repr``, pickling,
and frozen, ``__dict__``-free instances.

They import only the standard library and entscat, which loads no numpy, so
they also run as a script on an interpreter that has neither numpy nor
pytest:

    PYTHONPATH=src python3.13 tests/test_records.py
"""

import copy
import dataclasses
import inspect
import pickle

from entscat import DimensionlessPoint, ModelKind, observables_at, optimal_concurrence

RECORDS = (
    observables_at(DimensionlessPoint(1.0, 2.0, 0.5, ModelKind.HEISENBERG_CONTACT)),
    observables_at(DimensionlessPoint(0.0, 0.0, 0.5, ModelKind.SPIN_EXCHANGE)),  # C and a are None
    optimal_concurrence(0.5, 2.0),  # reason is None
    optimal_concurrence(0.1, 2.0),
)


def values(record) -> dict:
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def raises(error, call, *args, **kwargs) -> bool:
    try:
        call(*args, **kwargs)
    except error:
        return True
    return False


def test_positional_and_keyword_construction():
    for record in RECORDS:
        cls, fields = type(record), values(record)
        args, names = list(fields.values()), list(fields)
        assert list(inspect.signature(cls).parameters) == names
        assert cls(*args) == record
        assert cls(**fields) == record
        assert cls(*args[:2], **{name: fields[name] for name in names[2:]}) == record


def test_a_missing_or_extra_argument_raises_type_error():
    for record in RECORDS:
        cls, fields = type(record), values(record)
        args = list(fields.values())
        assert raises(TypeError, cls, *args[:-1])
        assert raises(TypeError, cls, *args, 0.0)
        assert raises(TypeError, cls, **fields, extra=0.0)
        assert raises(TypeError, cls, args[0], **fields)  # a field given twice
        assert raises(TypeError, cls)


def test_equality_hash_and_repr_match_a_replaced_record():
    for record in RECORDS:
        first = dataclasses.fields(record)[0].name
        replaced = dataclasses.replace(dataclasses.replace(record, **{first: -1.0}), **{first: getattr(record, first)})
        built = type(record)(*values(record).values())
        for other in (replaced, built):
            assert other == record and hash(other) == hash(record) and repr(other) == repr(record)
        assert dataclasses.replace(record, **{first: -1.0}) != record


def test_pickle_and_copy_round_trip():
    for record in RECORDS:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert type(back) is type(record) and back == record and repr(back) == repr(record)
        assert copy.copy(record) == record and copy.deepcopy(record) == record


def test_set_and_del_are_refused_and_there_is_no_dict():
    for record in RECORDS:
        assert not hasattr(record, "__dict__")
        assert type(record).__slots__ == tuple(values(record))
        for name in values(record):
            assert raises(dataclasses.FrozenInstanceError, setattr, record, name, 0.25)
            assert raises(dataclasses.FrozenInstanceError, delattr, record, name)
        assert raises((AttributeError, TypeError), setattr, record, "extra", 0.25)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
