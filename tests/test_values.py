"""The value types: plain immutable classes, equal and hashed by value, with
the reprs and constructor signatures they always had, and an import of the
CLI that loads neither `dataclasses` nor `inspect`."""

import copy
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys

import pytest

import multicolor
from multicolor.advice import AdviceTape
from multicolor.algorithms import Algorithm
from multicolor.graph import Graph, build_hexagonal, build_path
from multicolor.harness import RunReport
from multicolor.instance import (
    CancelAction,
    ColorAction,
    ColoringState,
    Instance,
    Request,
    Violation,
)
from multicolor.oracle import OptWitness
from multicolor.value import Value

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_cli_imports_no_dataclasses():
    code = ("import sys, multicolor.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# make(x) builds a fresh value; make(0) == make(0) and make(0) != make(1)
MAKERS = {
    "Graph": lambda x: build_path(1 + x),
    "Request": lambda x: Request("v1", "cancel", cancel_color=1 + x),
    "Instance": lambda x: Instance(build_path(2), (Request("v1", "color"),) * (1 + x)),
    "ColorAction": lambda x: ColorAction(1 + x),
    "CancelAction": lambda x: CancelAction(recolor=(1, 2 + x)),
    "Violation": lambda x: Violation(1, "edge-conflict", "u", color=1, other_node="w" + "w" * x),
    "ColoringState": lambda x: ColoringState(build_path(1), {"v1": frozenset({1})}, step=x),
    "RunReport": lambda x: RunReport("fpa", "i", 3 + x, 3, 5, 3, 1.0, True, 9),
    "OptWitness": lambda x: OptWitness(1 + x, {"v1": frozenset({1})}),
    "Algorithm": lambda x: Algorithm(len, sum, (repr, ascii)[x], max),
}
HASHABLE = {"Request", "ColorAction", "CancelAction", "Violation", "RunReport", "Algorithm"}


def test_every_value_type_is_checked():
    """Each Value subclass of the package has a maker, so the tests below cover it."""
    for module in pkgutil.iter_modules(multicolor.__path__):
        importlib.import_module(f"multicolor.{module.name}")
    types, todo = set(), [Value]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("multicolor."):
                types.add(cls.__name__)
            todo.append(cls)
    assert types == set(MAKERS)


@pytest.mark.parametrize("name", MAKERS)
def test_equal_by_value(name):
    make = MAKERS[name]
    a, b = make(0), make(0)
    assert a is not b
    assert a == b and not a != b
    assert a != make(1)
    assert a != object() and a != tuple(getattr(a, f) for f in type(a).__match_args__)
    if name in HASHABLE:
        assert hash(a) == hash(b)
        assert len({a, b, make(1)}) == 2
    else:  # a field holds a dict, as it always did
        with pytest.raises(TypeError):
            hash(a)


def test_equal_only_to_the_same_type():
    assert ColorAction(2) != CancelAction(2)
    g = build_path(1)
    assert Instance(g, (), "x") != ColoringState(g, (), "x")  # the same fields


@pytest.mark.parametrize("name", MAKERS)
def test_fields_cannot_be_assigned_or_deleted(name):
    value = MAKERS[name](0)
    for field in type(value).__match_args__:
        before = getattr(value, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("name", MAKERS)
def test_copy_and_pickle_keep_the_value(name):
    value = MAKERS[name](0)
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(other) is type(value) and other == value


def test_reprs():
    assert repr(build_path(1)) == ("Graph(kind='path', nodes=('v1',), adjacency={'v1': {}}, "
                                   "partition={'v1': 'L'}, cell_of={}, class_of={})")
    assert repr(build_hexagonal({"a": (0, 0)})) == (
        "Graph(kind='hexagonal', nodes=('a',), adjacency={'a': {}}, partition={}, "
        "cell_of={'a': (0, 0)}, class_of={'a': 'R'})")
    assert repr(Request("u", "color")) == "Request(node='u', op='color', cancel_color=None)"
    assert repr(Instance(build_path(1), (), name="x")) == (
        "Instance(graph=Graph(kind='path', nodes=('v1',), adjacency={'v1': {}}, "
        "partition={'v1': 'L'}, cell_of={}, class_of={}), requests=(), name='x')")
    assert repr(ColorAction(3)) == "ColorAction(color=3)"
    assert repr(CancelAction()) == "CancelAction(recolor=None)"
    assert repr(CancelAction((2, 1))) == "CancelAction(recolor=(2, 1))"
    assert repr(Violation(4, "bad-cancel", "u", 2)) == (
        "Violation(step=4, kind='bad-cancel', node='u', color=2, other_node=None)")
    assert repr(ColoringState(build_path(1)))[-len("f={}, step=0)"):] == "f={}, step=0)"
    assert repr(RunReport("fpa", "i", 3, 3, 5, None, None, True, None)) == (
        "RunReport(algorithm='fpa', instance='i', max_color=3, distinct_colors=3, "
        "advice_bits_read=5, opt_value=None, strict_ratio=None, valid=True, "
        "advice_bound=None, color_bound=None)")
    assert repr(OptWitness(0, {})) == "OptWitness(opt_value=0, coloring={})"
    assert repr(AdviceTape()) == "AdviceTape(bits=[], cursor=0)"


def test_constructor_defaults():
    g = Graph("path", ("v1",), {"v1": {}})
    assert (g.partition, g.cell_of, g.class_of) == ({}, {}, {})
    assert Request(node="u", op="color").cancel_color is None
    assert Instance(g, ()).name == "instance"
    assert CancelAction().recolor is None
    assert Violation(step=1, kind="invalid-color", node="u").asdict() == {
        "step": 1, "kind": "invalid-color", "node": "u", "color": None, "other_node": None}
    state = ColoringState(g)
    assert (state.f, state.step) == ({}, 0)
    report = RunReport("a", "i", 1, 1, 0, 1, 1.0, True, 4)
    assert report.color_bound is None
    assert list(report.asdict()) == list(RunReport.__match_args__)
    tape1, tape2 = AdviceTape(), AdviceTape()
    tape1.bits.append(1)
    assert tape2.bits == [] and tape2.cursor == 0  # each tape gets its own list


def test_init_needs_one_value_per_field():
    class Pair(Value):
        __slots__ = __match_args__ = ("a", "b")

        def __init__(self, *values):
            self._init(*values)

    assert Pair(1, 2).asdict() == {"a": 1, "b": 2}
    for values in [(1,), (1, 2, 3)]:
        with pytest.raises(ValueError):
            Pair(*values)


def test_advice_tape_is_mutable_and_unhashable():
    tape = AdviceTape(bits=[1, 0])
    assert tape == AdviceTape([1, 0], 0) and tape != AdviceTape([1, 0], 1)
    tape.read_bit()
    assert tape.cursor == 1
    with pytest.raises(TypeError):
        hash(tape)

