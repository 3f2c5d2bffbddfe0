"""Float output bytes that do not depend on the interpreter.

From Python 3.12 the built-in sum() of floats compensates its rounding
(Neumaier), where 3.10 and 3.11 add left to right.  The package adds its
float terms by scalars._sum, a left-to-right fold, so its bytes must not
move when sum() compensates.  These tests run the pinned float cases of
tests/test_cli_bytes.py in-process through shell.run with builtins.sum
replaced by a compensated sum written here, and check the pinned digests.
"""

import builtins
import hashlib
import io
import json
import math
import random
import sys

import pytest

from inversive import apollonian, shell
from test_cli_bytes import CASES, LOX_CASES, SOLVE_CASES

# the digest of the float n = 3 stream of
# test_cli_bytes.test_gen_n3_float_stream_is_pinned
N3_FLOAT_STREAM = "7f719315d379490e49c628728476451c46288100e99472301f7d40ff717421b8"


def _compensated_sum(values, /, start=0):
    """sum() as Python 3.12 and later add: the terms are added as before
    until the total is a float, then each float term by Neumaier's
    compensated summation, and an int term plainly."""
    total, compensation = start, 0.0
    for x in values:
        if type(total) is float and type(x) is float:
            t = total + x
            if abs(total) >= abs(x):
                compensation += (total - t) + x
            else:
                compensation += (x - t) + total
            total = t
        elif type(total) is float and type(x) is int:
            total += x
        else:
            if type(total) is float and compensation:
                total, compensation = total + compensation, 0.0
            total = total + x
    if type(total) is float and compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_compensated_sum_rounds_unlike_a_left_to_right_sum():
    assert _compensated_sum([1e16, 1.0, -1e16]) == 1.0
    assert sum([1e16, 1.0, -1e16]) == (1.0 if sys.version_info >= (3, 12)
                                       else 0.0)
    assert _compensated_sum([1, 2, 3]) == 6
    assert _compensated_sum([0.5, 0.25], start=1) == 1.75
    if sys.version_info >= (3, 12):  # the built-in it stands in for
        rng = random.Random(17)
        for _ in range(200):
            values = [rng.uniform(-1, 1) * 10 ** rng.randrange(-20, 20)
                      for _ in range(rng.randrange(1, 12))]
            assert _compensated_sum(values) == sum(values)


@pytest.fixture
def cli(monkeypatch, capsys):
    """Run one CLI command in-process under the compensated sum() and
    return the sha256 of its stdout and the stdout."""
    monkeypatch.setattr(builtins, "sum", _compensated_sum)

    def run(argv, stdin=""):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        assert shell.run(argv) == 0
        out = capsys.readouterr().out
        return hashlib.sha256(out.encode()).hexdigest(), out
    return run


_FLOAT_GEN = [case for case in CASES if "float" in case[0]]


@pytest.mark.parametrize("args, render_args, gen_digest, svg_digest",
                         _FLOAT_GEN,
                         ids=[case[0][1] for case in _FLOAT_GEN])
def test_float_gen_and_render_bytes_keep_their_digests(
        cli, args, render_args, gen_digest, svg_digest):
    digest, stream = cli(["gen", *args])
    assert digest == gen_digest
    assert cli(["render", "--in", "-", *render_args], stream)[0] == svg_digest


def test_float_n3_stream_keeps_its_digest(cli):
    document = shell.dumps_config(
        apollonian.standard_seed("euclidean", 3, "float"))
    assert cli(["gen", "--in", "-", "--max-bend", "4"],
               document)[0] == N3_FLOAT_STREAM


_FLOAT_LOX = [case for case in LOX_CASES if case[1] == "float"]


@pytest.mark.parametrize("args, mode, digest", _FLOAT_LOX,
                         ids=[case[0][1] for case in _FLOAT_LOX])
def test_float_lox_bytes_keep_their_digests(cli, args, mode, digest):
    assert cli(["lox", *args, "--steps", "60", "--mode", mode])[0] == digest


# one case per converted configuration: the solve, its conversion to the
# target geometry and the verify report of that
_FLOAT_SOLVE = [(geometry, bends, solve_digest, target, *digests)
                for geometry, bends, mode, solve_digest, converted
                in SOLVE_CASES if mode == "float"
                for target, digests in converted.items()]


@pytest.mark.parametrize(
    "geometry, bends, solve_digest, target, convert_digest, verify_digest",
    _FLOAT_SOLVE, ids=[f"{case[0]}-to-{case[3]}" for case in _FLOAT_SOLVE])
def test_float_solve_convert_verify_bytes_keep_their_digests(
        cli, geometry, bends, solve_digest, target, convert_digest,
        verify_digest):
    digest, out = cli(["solve", "--geometry", geometry, f"--seed={bends}",
                       "--mode", "float"])
    assert digest == solve_digest
    document = json.dumps(json.loads(out)["configurations"][-1])
    digest, text = cli(["convert", "--to", target], document)
    assert digest == convert_digest
    assert cli(["verify"], text)[0] == verify_digest
