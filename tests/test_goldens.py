"""Outputs pinned byte for byte: the 22 germ reports, six family runs and
the marked-disk quotients.

``tests/golden/reports.json`` holds ``report_dict(analyze_germ(g),
include_timing=False)`` for every germ of ``CORPUS + NON_M2``,
``tests/golden/families.json`` the standard output of ``carousel family
--family F --json-compact`` for the six families of the benchmark, and
``tests/golden/quotients.json`` that of ``carousel quotient --n N --pairs P
--shift S --json-compact`` for every perfect matching P with N <= 6 and
every shift 0 <= S < N; a run that exits nonzero is pinned as its exit
code and standard error.
A change that is meant to alter these outputs re-pins them with

    PYTHONPATH=src python tests/test_goldens.py

and says in its change notes which outputs moved and why.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from carousel.cli import main
from carousel.corpus import CORPUS, NON_M2
from carousel.report import analyze_germ, report_dict

GOLDEN = Path(__file__).resolve().parent / "golden"
REPORTS = GOLDEN / "reports.json"
FAMILIES = GOLDEN / "families.json"
QUOTIENTS = GOLDEN / "quotients.json"

# the six families of the benchmark's `family` workload
FAMILY_TEXTS = (
    "x^3 - y^2 + t*x",
    "x^5 - y^2 + t*x^3",
    "x^3 + y^3",
    "x^4 + y^2 + t*x^2",
    "x^5 - x*y^3 + t*(x^2 + y^2)",
    "x^2*y + y^4 + t*x*y",
)


def serialize(value, like: str) -> str:
    """``value`` as JSON text in the layout of ``like``: the report's or the CLI's."""
    if like.endswith("\n"):
        return json.dumps(value, separators=(",", ":")) + "\n"
    return json.dumps(value)


def germ_report(germ: str) -> str:
    return json.dumps(report_dict(analyze_germ(germ), include_timing=False))


def family_output(family: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["family", "--family", family, "--json-compact"])
    assert code == 0, f"carousel family --family {family!r} exited {code}"
    return out.getvalue()


def matchings(labels):
    """Every perfect matching of ``labels``, as a tuple of pairs."""
    if not labels:
        yield ()
        return
    for k in range(1, len(labels)):
        rest = labels[1:k] + labels[k + 1 :]
        for matching in matchings(rest):
            yield ((labels[0], labels[k]),) + matching


# "N P S" for every quotient of the golden file: N marked points,
# perfect matching P, shift S
QUOTIENT_ARGS = tuple(
    f"{n} {','.join(f'({a},{b})' for a, b in matching)} {shift}"
    for n in (2, 4, 6)
    for matching in matchings(tuple(range(n)))
    for shift in range(n)
)


def quotient_output(spec: str) -> str:
    """``carousel quotient`` standard output, or its exit code and standard
    error as one JSON line when it fails."""
    n, pairs, shift = spec.split()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["quotient", "--n", n, "--pairs", pairs, "--shift", shift, "--json-compact"])
    if code == 0:
        return out.getvalue()
    return json.dumps({"exit": code, "stderr": err.getvalue()}, separators=(",", ":")) + "\n"


def first_difference(got, want, path="$"):
    """Path and values of the first field where two JSON values differ."""
    if isinstance(got, dict) and isinstance(want, dict):
        if list(got) != list(want):
            return f"{path} keys", list(got), list(want)
        for key in want:
            diff = first_difference(got[key], want[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(got, list) and isinstance(want, list):
        for k, (g, w) in enumerate(zip(got, want)):
            diff = first_difference(g, w, f"{path}[{k}]")
            if diff:
                return diff
        if len(got) != len(want):
            return f"{path} length", len(got), len(want)
        return None
    if type(got) is not type(want) or got != want:
        return path, got, want
    return None


def assert_same(name: str, got: str, want) -> None:
    """``got`` is output text, ``want`` the golden value it must serialize."""
    parsed = json.loads(got)
    if got == serialize(want, got):
        return
    diff = first_difference(parsed, want)
    if diff is None:
        pytest.fail(f"{name}: same values, different bytes")
    field, g, w = diff
    pytest.fail(f"{name}: first difference at {field}: got {g!r}, golden {w!r}")


@pytest.mark.parametrize("germ", CORPUS + NON_M2)
def test_report_matches_golden(germ):
    golden = json.loads(REPORTS.read_text(encoding="utf-8"))
    assert_same(germ, germ_report(germ), golden[germ])


@pytest.mark.parametrize("family", FAMILY_TEXTS)
def test_family_cli_matches_golden(family):
    golden = json.loads(FAMILIES.read_text(encoding="utf-8"))
    assert_same(family, family_output(family), golden[family])


def test_quotient_cli_matches_golden():
    golden = json.loads(QUOTIENTS.read_text(encoding="utf-8"))
    for spec in QUOTIENT_ARGS:
        assert_same(spec, quotient_output(spec), golden[spec])


def test_goldens_cover_every_input():
    assert list(json.loads(REPORTS.read_text(encoding="utf-8"))) == list(CORPUS + NON_M2)
    assert list(json.loads(FAMILIES.read_text(encoding="utf-8"))) == list(FAMILY_TEXTS)
    assert list(json.loads(QUOTIENTS.read_text(encoding="utf-8"))) == list(QUOTIENT_ARGS)


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    reports = {germ: germ_report(germ) for germ in CORPUS + NON_M2}
    families = {family: family_output(family) for family in FAMILY_TEXTS}
    quotients = {spec: quotient_output(spec) for spec in QUOTIENT_ARGS}
    for path, texts in ((REPORTS, reports), (FAMILIES, families), (QUOTIENTS, quotients)):
        data = {name: json.loads(text) for name, text in texts.items()}
        for name, text in texts.items():
            assert serialize(data[name], text) == text, f"{name} does not round-trip"
        path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path} ({len(data)} entries)", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
