"""Fuzzing the Click configuration front end: any text, and any mutation of
a shipped configuration, either builds a graph or raises a named error."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze.cli import shipped_configs
from repro.click.config.lexer import ConfigError
from repro.click.element import ElementConfigError
from repro.click.graph import ProcessingGraph

SHIPPED = sorted(set(shipped_configs().values()))

#: Characters the Click grammar gives meaning to, so random text reaches
#: past the lexer more often than uniform unicode would.
_CLICK_ALPHABET = st.sampled_from(
    list("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
         "0123456789 \t\n:;,-[]()>/*#.\"'\\_=!&|")
) | st.characters()


def _parse(text):
    try:
        ProcessingGraph.from_text(text)
    except (ConfigError, ElementConfigError):
        pass


@settings(max_examples=300, deadline=None)
@given(st.text(_CLICK_ALPHABET, max_size=200))
def test_arbitrary_text_raises_only_named_errors(text):
    _parse(text)


@st.composite
def _mutated_shipped(draw):
    text = draw(st.sampled_from(SHIPPED))
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 24)))
        kind = draw(st.sampled_from(["delete", "replace", "insert",
                                     "duplicate"]))
        if kind == "delete":
            text = text[:start] + text[end:]
        elif kind == "duplicate":
            text = text[:end] + text[start:end] + text[end:]
        else:
            piece = draw(st.text(_CLICK_ALPHABET, min_size=1, max_size=8))
            text = text[:start] + piece + text[
                (end if kind == "replace" else start):]
    return text


@settings(max_examples=300, deadline=None)
@given(_mutated_shipped())
def test_mutated_shipped_configs_raise_only_named_errors(text):
    _parse(text)
