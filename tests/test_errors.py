"""Every error in fastsearch.errors survives pickling intact."""

import inspect
import pickle

import pytest

from fastsearch import errors

#: Constructor arguments of the errors that carry values; the others take a message.
ARGS = {
    errors.NonFinite: (1,),
    errors.NotStrictlyIncreasing: (3,),
    errors.NotDistinguishable: (4,),
    errors.Overflow: (float("inf"), 1 << 22, 2),
    errors.OutOfDomain: ("query outside [X0, XN)", 5),
}

CLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, Exception) and cls.__module__ == errors.__name__
]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_round_trips_through_pickle(cls):
    err = cls(*ARGS.get(cls, ("message",)))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    for name in ("position", "buckets", "limit", "n"):
        assert getattr(back, name, None) == getattr(err, name, None), name
