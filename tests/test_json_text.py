"""The one JSON writer against json.dumps, its reference, and its memory."""

from __future__ import annotations

import importlib.util
import json
import tracemalloc
from collections import namedtuple
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from archon.checker import resolve
from archon.diagnostics import json_pieces, json_text
from archon.model import builtin_type_table
from archon.parser import parse
from archon.plan import BuildPlan, Channel, Stage, _record_writer, plan, plan_pieces, serialize_plan

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_gen", REPO / "perfbench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def _reference(value) -> str:
    return json.dumps(value, indent=2) + "\n"


_CHARS = st.one_of(
    st.characters(),  # every code point but the surrogates, non-BMP included
    st.sampled_from('"\\/\x00\x08\x09\x0a\x0c\x0d\x1f\x7f\x80\u2028\uffff\U0001f600\U0010ffff'),
    st.characters(categories=["Cs"]),  # lone surrogates
)
_TEXT = st.text(_CHARS, max_size=12)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    _TEXT,
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(_TEXT, max_size=5),  # the all-string list path
        st.dictionaries(_TEXT, inner, max_size=5),
    ),
    max_leaves=30,
)


@given(_VALUES)
@example([])
@example({})
@example([[], {}, [[], [{}]], {"a": {}, "b": [], "c": {"d": [{}]}}])
@example([True, False, None, 0, 1, -1, "x"])
@example(["a", "b", 1])  # strings first, then not
@example([1, "a"])
@example(("a", ("b",), ()))
@example({"": "", "\xe9\U0001f600": "\x00\"\\", "k": [True]})
@example(10**400)
def test_json_text_is_json_dumps_indent_2(value):
    assert json_text(value) == _reference(value)


@given(st.dictionaries(_TEXT, st.tuples(_VALUES, st.booleans()), max_size=3))
@example({})
@example({"a": ([], True), "b": ([{}], True), "c": ([1, "x", []], True), "d": ([], False)})
def test_json_pieces_join_to_json_text(members):
    """A member given as an iterator is written as the array of its items."""
    lazy = {
        key: iter(value) if as_iterator and isinstance(value, list) else value
        for key, (value, as_iterator) in members.items()
    }
    assert "".join(json_pieces(lazy)) == _reference({k: v for k, (v, _) in members.items()})


_NAMES = st.text(_CHARS, max_size=8)
_WORDS = st.lists(_NAMES, max_size=3).map(tuple)  # empty and not
_STAGES = st.builds(
    Stage, _NAMES, _NAMES, _NAMES, st.one_of(st.integers(0, 64), st.integers(0, 10**60)),
    _WORDS, _WORDS, _WORDS, st.booleans(), _NAMES,
)
_CHANNELS = st.builds(Channel, _NAMES, _NAMES, _NAMES, _NAMES)


@given(_NAMES, st.lists(_STAGES, max_size=4).map(tuple), st.lists(_CHANNELS, max_size=4).map(tuple))
@example("S", (), ())
@example("S", (Stage("a\"\\\x00\xe9", "process", replica=10**40, argv=("x",), stateless=True),), (Channel("p", "pipe"),))
def test_serialize_plan_writes_each_record_as_json_dumps_its_dict(system, stages, channels):
    """Each stage and channel, written from its fields by its type's format,
    reads as json.dumps writes the dict form, to_json_obj."""
    built = BuildPlan(system, stages, channels)
    members = built.to_json_obj()
    members["stages"], members["channels"] = list(members["stages"]), list(members["channels"])
    assert serialize_plan(built) == _reference(members)


def test_a_field_added_to_a_plan_record_is_written_with_no_other_change():
    Wider = namedtuple("Wider", [*Stage._fields, "note", "weight", "pinned", "tags"])
    record = Wider(*Stage("a", "process", argv=("x",)), "n\u2028", 10**20, True, ("t", "\""))
    pieces = json_pieces({"stages": (record,)}, {"stages": _record_writer(Wider)})
    assert "".join(pieces) == _reference({"stages": [record._asdict()]})


@pytest.mark.parametrize("value", [1.5, [1, 2.0], {"a": b"x"}, {1: "a"}, {None: 1}, object()])
def test_json_text_refuses_what_archon_never_emits(value):
    with pytest.raises(TypeError):
        json_text(value)


def test_serialize_plan_peaks_under_six_times_its_text():
    """The 1000-stage mixed system's plan: json.dumps(indent=2) builds one
    string per token and peaks at about 9.5x the text; the writer, which
    keeps every piece and their join, at about 2.3x."""
    result = resolve(parse(gen.mixed_arch(1000, 7)), builtin_type_table())
    built = plan(result.architecture, result.table)
    assert len(built.stages) > 1000
    text = serialize_plan(built)
    members = built.to_json_obj()
    members["stages"], members["channels"] = list(members["stages"]), list(members["channels"])
    assert text == _reference(members)

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        serialize_plan(built)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 6 * len(text), f"peak {peak} B for a text of {len(text)} B"


def test_plan_written_piece_by_piece_peaks_under_a_quarter_of_its_text():
    """Written into a sink that discards it, the 1000-stage plan holds one
    stage's or channel's dict and text at a time (about 0.06x the text);
    serialize_plan, which keeps every piece and their join, about 2.3x."""
    result = resolve(parse(gen.mixed_arch(1000, 7)), builtin_type_table())
    built = plan(result.architecture, result.table)
    size = len(serialize_plan(built))

    class Sink:
        def write(self, piece: str) -> None:
            pass

    sink = Sink()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for piece in plan_pieces(built):
            sink.write(piece)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < size / 4, f"peak {peak} B for a text of {size} B"
