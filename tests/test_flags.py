"""Flag converters: each reads its text as the separate converters before it did.

The oracle below is the earlier code, one converter per flag with its own
try/except, and --members and --arc read through the file module's parsers.
"""
import argparse

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitcost import cli
from orbitcost.relcore import Arc, FormatError


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("value must be positive")
    return value


def _factors(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"factors are a comma-separated order list, got {text!r}")


def _indices(text: str) -> range | list[int]:
    try:
        if ":" in text:
            parts = [int(p) for p in text.split(":")]
            if len(parts) == 2:
                parts.append(1)
            if len(parts) != 3 or parts[2] < 1:
                raise ValueError
            return range(parts[0], parts[1] + 1, parts[2])
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"indices are a comma list or start:stop:step, got {text!r}") from None


def _specs(text: str) -> list[tuple[int, ...]]:
    try:
        return [tuple(int(p) for p in chunk.split(",")) for chunk in text.split(";")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"specs are semicolon-separated factor lists, got {text!r}") from None


def parse_members(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise FormatError(f"cannot read {text!r} as a comma-separated atom list") from None


def parse_arc(text: str) -> Arc:
    parts = text.split(":")
    if len(parts) != 2:
        raise FormatError(f"an arc is written start:length, got {text!r}")
    try:
        return Arc(int(parts[0]), int(parts[1]))
    except ValueError:
        raise FormatError(f"an arc is written start:length, got {text!r}") from None


def _reported(parse):
    def convert(text: str):
        try:
            return parse(text)
        except FormatError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return convert


ORACLE = {"_positive": _positive, "_factors": _factors, "_indices": _indices,
          "_specs": _specs, "_members": _reported(parse_members), "_arc": _reported(parse_arc)}


def outcome(convert, text):
    """(type, value) or ("error", message) for one conversion; any other exception escapes."""
    try:
        value = convert(text)
        return type(value), value
    except argparse.ArgumentTypeError as e:
        return "error", str(e)


@pytest.mark.parametrize("name", list(ORACLE))
@settings(max_examples=60, deadline=None)
@given(text=st.text(alphabet="0123456789,:;-_ x", max_size=12))
@example(text="")
@example(text=":")
@example(text="1:5:0")
@example(text="6:1:-1")
@example(text="1:2:3:4")
@example(text="5")
@example(text="1_0:-2")
@example(text=str(2**64))
def test_each_flag_reads_text_as_the_separate_converters_did(name, text):
    assert outcome(getattr(cli, name), text) == outcome(ORACLE[name], text)
