"""The frozen records and what one CLI process imports at start-up."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from sphere_calculus.elliptic import BlowupFunctions, blowup_functions
from sphere_calculus.embedded import (
    DerivationError,
    EmbeddedRelation,
    derive_embedded,
)
from sphere_calculus.immersed import NormalForm, derive_immersed
from sphere_calculus.lens import FlatClass, PosetJ, build_poset, character_variety
from sphere_calculus.rings import AlphaPoly

SRC = Path(__file__).resolve().parent.parent / "src"


def samples():
    return [blowup_functions(8), derive_embedded(3, 1),
            derive_immersed(1, 0, -4), character_variety(5, 0)[0],
            build_poset(6, 0, 10)]


def as_dataclass(record):
    """The frozen dataclass with the record's name, fields and values."""
    cls = dataclasses.make_dataclass(type(record).__name__,
                                     record.__slots__, frozen=True)
    return cls(*[getattr(record, name) for name in record.__slots__])


def test_the_five_records():
    assert [type(r) for r in samples()] == [
        BlowupFunctions, EmbeddedRelation, NormalForm, FlatClass, PosetJ]


@pytest.mark.parametrize("record", samples(), ids=lambda r: type(r).__name__)
def test_record_behaves_as_a_frozen_dataclass(record):
    cls, names = type(record), record.__slots__
    values = [getattr(record, name) for name in names]
    ref = as_dataclass(record)
    assert repr(record) == repr(ref)
    assert not hasattr(record, "__dict__")

    # construction by position and by keyword, validated each time
    by_name = cls(**dict(zip(names, values)))
    mixed = cls(*values[:2], **dict(zip(names[2:], values[2:])))
    assert record == by_name == mixed == cls(*values)
    for bad_args, bad_kwargs in ((values[:-1], {}), (values + [0], {}),
                                 (values, {names[0]: values[0]}),
                                 (values, {"extra": 0})):
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)

    # assignment and deletion raise
    for name in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in names] == values

    # == and hash follow the field tuple, and the type must match
    assert (record == ref) is False and record != ref
    assert record != tuple(values)
    try:
        want = hash(tuple(values))
    except TypeError:  # BlowupFunctions holds unhashable series
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == want == hash(by_name) == hash(ref)
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))


def test_records_differ_by_a_field():
    poset = build_poset(6, 0, 10)
    fewer = PosetJ(poset.n, poset.p, poset.parity, poset.vertices,
                   poset.edges[:-1])
    assert fewer != poset and hash(fewer) != hash(poset)
    assert FlatClass(0, True, 3) == FlatClass(m=0, trivial=True, s=3)
    assert FlatClass(0, True, 3) != FlatClass(2, True, 3)


def test_construction_validates():
    with pytest.raises(ValueError, match="isotropy"):
        FlatClass(1, True, 1)
    with pytest.raises(ValueError, match="isotropy"):
        FlatClass(m=1, trivial=False, s=3)
    nf = derive_immersed(1, 0, -4)
    with pytest.raises(DerivationError, match="length"):
        NormalForm(nf.p, nf.s, nf.a, nf.c + (AlphaPoly(),), nf.d)
    with pytest.raises(DerivationError, match="s out of range"):
        NormalForm(p=nf.p, s=nf.p + 1, a=nf.a, c=nf.c, d=nf.d)
    with pytest.raises(DerivationError, match="degree/parity"):
        NormalForm(nf.p, nf.s, nf.a, nf.c, (AlphaPoly.gen(2),) + nf.d[1:])


def test_cli_import_skips_dataclasses_and_inspect():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, sphere_calculus.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
