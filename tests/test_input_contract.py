"""Input contract: every reader turns any text into a value or an
OdskError, and every CLI subcommand exits 0, 2 or 3 on any input bytes.

Inputs are arbitrary text plus the bundled fixtures with a few byte
edits, some of them tokens that once crashed a reader. The CI workflow
runs this file again under the ``fuzz`` hypothesis profile.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from odsk import (OdskError, poset_from_tsv, read_cxt, read_distance_csv,
                  read_scaling_spec, read_table_csv)
from odsk.cli import run
from odsk.fixtures import fixture_text

TOKENS = [b"NaN", b"sNaN", b"Infinity", b"-inf", b"-1", b"1.5", b"1e999999",
          b"9E+999999", b"0", b"X", b".", b"B", b"\n", b"\r", b"\t", b",", b'"',
          b"#", b"\xff", b"null", b"[]", b"{}", b'[["x"]]', b'["1", "1"]',
          b'"nominal"', b'"contranominal"', b'"interordinal"', b'"dichotomic"',
          b'"descending"', b'"values"', b'"kind"']


def _apply(data: bytes, edits) -> bytes:
    for pos, cut, insert in edits:
        pos = min(pos, len(data))
        data = data[:pos] + insert + data[pos + cut:]
    return data


def mutated(data: bytes):
    """``data`` after one to four edits: cut up to four bytes at a
    position and insert a token or a few random bytes there."""
    edit = st.tuples(st.integers(0, len(data)), st.integers(0, 4),
                     st.sampled_from(TOKENS) | st.binary(max_size=3))
    return st.lists(edit, min_size=1, max_size=4).map(lambda e: _apply(data, e))


def texts(*fixtures: str):
    """Arbitrary text, or a fixture's bytes mutated and decoded."""
    seeds = [mutated(fixture_text(name).encode()) for name in fixtures]
    return st.text() | st.one_of(*seeds).map(lambda b: b.decode("utf-8", "replace"))


def _value_or_odsk_error(reader, text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # triangle-inequality warnings
        try:
            reader(text)
        except OdskError:
            pass


@given(texts("rembrandt.cxt", "socialnet.cxt"))
def test_read_cxt_total(text):
    _value_or_odsk_error(read_cxt, text)


@given(texts("bundesliga.tsv"))
def test_poset_from_tsv_total(text):
    _value_or_odsk_error(poset_from_tsv, text)


@given(texts("airlines_dist.csv"))
def test_read_distance_csv_total(text):
    _value_or_odsk_error(read_distance_csv, text)


@given(texts("bundesliga.csv"))
def test_read_table_csv_total(text):
    _value_or_odsk_error(read_table_csv, text)


def spec_documents():
    """JSON objects shaped like scaling specs, with loosely typed fields."""
    anything = st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=3), max_leaves=6)
    body = st.fixed_dictionaries(
        {"kind": st.sampled_from(["ordinal", "nominal", "dichotomic", "ratio"]) | anything},
        optional={"direction": st.sampled_from(["ascending", "descending"]) | anything,
                  "values": anything})
    return st.dictionaries(st.text(max_size=3), body | anything, max_size=3).map(json.dumps)


@given(texts("bundesliga_scales.json") | spec_documents())
def test_read_scaling_spec_total(text):
    _value_or_odsk_error(read_scaling_spec, text)


# -- the CLI ------------------------------------------------------------------

CITIES = fixture_text("airlines_dist.csv").splitlines()[0].split(",")[1:]
# a chain over the airline cities, to pair with their distances
EXTRA = {"airlines_chain.tsv": "".join(f"{a}\t{b}\n" for a, b in zip(CITIES, CITIES[1:]))}

# argv with {0}, {1}, ... for the input files, and the files' names
COMMANDS = [
    (["concepts", "{0}"], ["rembrandt.cxt"]),
    (["implications", "{0}"], ["socialnet.cxt"]),
    (["guttman", "{0}"], ["rembrandt.cxt"]),
    (["factors", "{0}", "-k", "2"], ["socialnet.cxt"]),
    (["draw", "{0}", "--budget-ms", "200"], ["rembrandt.cxt"]),
    (["draw", "{0}", "--budget-ms", "200", "--reduced-labels"], ["airlines.cxt"]),
    (["--json", "draw", "{0}", "--budget-ms", "200", "--algo", "layered"], ["bundesliga.tsv"]),
    (["complete", "{0}"], ["bundesliga.tsv"]),
    (["dimension", "{0}", "--budget-ms", "200"], ["bundesliga.tsv"]),
    (["dimension", "{0}", "--spec", "{1}", "--budget-ms", "200", "--verify-points"],
     ["bundesliga.csv", "bundesliga_scales.json"]),
    (["dimension", "{0}", "--spec", "{1}", "--budget-ms", "200", "--no-quotient"],
     ["bundesliga.csv", "bundesliga_scales.json"]),
    (["pareto", "{0}", "--spec", "{1}"], ["bundesliga.csv", "bundesliga_scales.json"]),
    (["scale", "{0}", "--spec", "{1}"], ["bundesliga.csv", "bundesliga_scales.json"]),
    (["omspace", "mediate", "{0}", "{1}"], ["airlines.cxt", "airlines_dist.csv"]),
    (["omspace", "distortion", "{0}", "{1}", "--reflexive-close"],
     ["airlines_chain.tsv", "airlines_dist.csv"]),
]


def _original(name: str) -> bytes:
    return (EXTRA[name] if name in EXTRA else fixture_text(name)).encode()


def _cli_cases():
    def one(k):
        argv, sources = COMMANDS[k]
        originals = [_original(s) for s in sources]
        return st.integers(0, len(originals) - 1).flatmap(
            lambda which: mutated(originals[which]).map(
                lambda data: (k, [data if i == which else o
                                  for i, o in enumerate(originals)])))
    return st.integers(0, len(COMMANDS) - 1).flatmap(one)


def _run_cli(k: int, contents: list[bytes]) -> int:
    argv, sources = COMMANDS[k]
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, (source, data) in enumerate(zip(sources, contents)):
            path = Path(tmp) / f"in{i}{Path(source).suffix}"
            path.write_bytes(data)
            paths.append(str(path))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore")  # the CLI shows warnings, it does not raise them
            return run([a.format(*paths) for a in argv])


@pytest.mark.parametrize("k", range(len(COMMANDS)))
def test_cli_fixtures_exit_zero(k):
    assert _run_cli(k, [_original(s) for s in COMMANDS[k][1]]) == 0


@given(_cli_cases())
def test_cli_exit_code_contract(case):
    k, contents = case
    assert _run_cli(k, contents) in (0, 2, 3)
