"""Mutated input files end in an exit code, never in an exception.

``cli.main`` runs in-process on seeded mutations of the corpus term and
quantale files and of the perfbench derivation files: tokens inserted and
deleted, invalid UTF-8 bytes, a variable or number of a term replaced by
a derived ``_d`` primitive on a bad radius, and (for JSON) a field
replaced by another JSON value.  Every run must exit 0, 1 or 2 with no
traceback on stderr.  The examples are derandomized, so each run tries
the same inputs.
"""

import contextlib
import functools
import io
import itertools
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lamdist.cli import main

ROOT = Path(__file__).resolve().parent.parent
SEEDS = {
    "lam": sorted((ROOT / "corpus").glob("*.lam")),
    "qnt": sorted((ROOT / "corpus").glob("*.qnt"))
    + [ROOT / "perfbench" / "inputs" / "frame3.qnt"],
    "json": sorted((ROOT / "perfbench" / "inputs" / "derivations")
                   .glob("*.json")) + [ROOT / "corpus" / "golden_sin.json"],
}
TOKENS = [b"(", b")", b"\\", b":", b".", b",", b"=", b"+", b"-", b"*", b"/",
          b"->", b"Real", b"x", b"x'", b"f", b"sin", b"sin_d", b"fst", b"snd",
          b"0", b"1e308", b"-1", b"#", b"\n", b" ", b"quantale", b"elements",
          b"order", b"<=", b"unit", b"tensor", b"top", b"bot", b"[", b"]",
          b"{", b"}", b'"', b"null", b"Infinity"]
INVALID_UTF8 = [b"\xff", b"\xc3", b"\xe9t\xe9", b"\xed\xa0\x80", b"\x80\x80"]
# derived primitives on negative, variable and nested radii, put in the
# place of a variable or a number of a term
RADII = [b"sin_d(x, -1)", b"sin_d(x, 0 - x * x)", b"cos_d(x, sin_d(x, x))",
         b"sin_d(sin_d(x, -0.5), 1)", b"mul_d(x, 1, x, -1)",
         b"div_d(1, x, 0.5, x * x)", b"abs_d(x, sin_d(x, 0 - x))"]
_TOKEN = re.compile(rb"\s+|[\w.]+'*|.", re.S)
_OPERAND = re.compile(rb"x|\d[\d.]*")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["x", "x'", "x y", "Real", "Real -> Real", "0", "Lit",
                       "App", "Conv"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["rule", "conclusion", "premises",
                                       "ctx", "left", "dist", "right",
                                       "type"]), inner, max_size=3),
    max_leaves=6)


def _slots(value, out):
    """Every (container, key) of a decoded JSON document."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        out.append((value, key))
        _slots(child, out)
    return out


@functools.cache
def _seed(path):
    return path.read_bytes()


@st.composite
def mutated(draw, kind):
    data = _seed(draw(st.sampled_from(SEEDS[kind])))
    if kind == "json" and draw(st.booleans()):
        doc = json.loads(data)
        container, key = draw(st.sampled_from(_slots(doc, [])))
        container[key] = draw(json_values)
        data = json.dumps(doc).encode()
    for _ in range(draw(st.integers(0 if kind == "json" else 1, 3))):
        tokens = _TOKEN.findall(data)
        at = draw(st.integers(0, len(tokens)))
        action = draw(st.sampled_from(
            ["insert", "delete", "bytes"] + ["radius"] * (kind != "qnt")))
        if action == "delete":
            del tokens[at:at + 1]
        elif action == "radius":
            operands = [i for i, token in enumerate(tokens)
                        if _OPERAND.fullmatch(token)] or [at]
            at = draw(st.sampled_from(operands))
            tokens[at:at + 1] = [draw(st.sampled_from(RADII))]
        else:
            tokens.insert(at, draw(st.sampled_from(
                TOKENS if action == "insert" else INVALID_UTF8)))
        data = b"".join(tokens)
    return data


def _commands(kind, path):
    if kind == "lam":
        return [["typecheck", path], ["derive", path, "deps"],
                ["diff", path, "idf", "sinf", "--probes", "5"]]
    if kind == "qnt":
        return [["laws", "--file", path, "--size", "2"]]
    return [["judge", path]]


_FRESH = itertools.count()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("kind", sorted(SEEDS))
@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_mutated_input_exits_with_a_code(scratch, kind, data):
    # a new file per example: rewriting one in place is slow on some disks
    path = scratch / f"input-{next(_FRESH)}.{kind}"
    path.write_bytes(data.draw(mutated(kind)))
    for argv in _commands(kind, str(path)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue(), argv
