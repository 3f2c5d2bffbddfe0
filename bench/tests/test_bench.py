"""Tests of the benchmark itself: seeded inputs, output checks that catch a
corrupted output, self-time arithmetic, and a smoke run of each workload.

    python3 -m pytest -q bench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_package()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from inversive import apollonian, forms, svg  # noqa: E402

REFERENCE = run.load_reference()
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def make(name, seed, seconds=1):
    return workloads.WORKLOADS[name](seed, seconds, REFERENCE)


def smoke(name, seed=1):
    """Set up and run one tiny run in this process; returns the runner."""
    args = type("Args", (), {"workload": name, "seed": seed, "seconds": 1})()
    workload = run.set_up(args)
    workload.rounds = 2
    runner = workloads.Runner()
    run.timed_phase(workload, runner)
    runner.finish()
    return runner


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_inputs_are_deterministic_per_seed(name):
    assert make(name, 7).describe() == make(name, 7).describe()
    assert make(name, 7).describe() != make(name, 8).describe()


def test_benchmark_json_names_every_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in SPEC["end_to_end"]] == \
        [name for name, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        run.per_layer_units()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_run_has_only_known_failures(name):
    runner = smoke(name)
    assert runner.attempted > 0
    assert runner.unknown_failures == 0, runner.failure_list()
    if name in ("gen-render-exact", "stream-render"):
        assert runner.failed == 0


def test_known_defects_are_counted_with_their_inputs():
    failures = smoke("gen-float").failure_list()
    defects = {f["defect"] for f in failures}
    assert defects == {checks.FLOAT_BOUND_EDGE, checks.FLOAT_HYPERBOLIC_REALIZE}
    edge = next(f for f in failures if f["defect"] == checks.FLOAT_BOUND_EDGE)
    assert "(-8, 16, 16, 24), 600" in edge["input"]


def change_one_row(generate):
    def corrupted(seed, bound, *args, **kwargs):
        packing = generate(seed, bound, *args, **kwargs)
        rows = list(packing.rows)
        row = rows[len(rows) // 2]
        entries = (row.entries[0] + 1,) + row.entries[1:]
        rows[len(rows) // 2] = forms.CoordRow(row.kind, entries)
        return dataclasses.replace(packing, rows=tuple(rows))
    return corrupted


def change_one_svg_byte(render, old=b"<circle", new=b"<circlf"):
    def corrupted(*args):
        image = render(*args)
        return image.replace(old, new, 1)
    return corrupted


@pytest.mark.parametrize("name", ["gen-render-exact", "gen-float"])
def test_a_changed_row_is_counted_as_failed(monkeypatch, name):
    monkeypatch.setattr(apollonian, "generate",
                        change_one_row(apollonian.generate))
    assert smoke(name).unknown_failures > 0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES[:3])
def test_a_changed_svg_byte_is_counted_as_failed(monkeypatch, name):
    monkeypatch.setattr(svg, "render", change_one_svg_byte(svg.render))
    assert smoke(name).unknown_failures > 0


def test_a_changed_digit_is_counted_as_failed_in_both_modes():
    geometry, bends, bound = workloads.MAIN
    exact_seed = apollonian.realize_bends(geometry, bends)
    exact = apollonian.generate(exact_seed, bound)
    image = svg.render(exact)
    ref = REFERENCE["packings"][workloads.packing_key(*workloads.MAIN)]
    assert checks.digest(image, ref["svg"][workloads.options_key(
        workloads.DEFAULT_OPTIONS)], "SVG") is None
    float_image = svg.render(apollonian.generate(
        workloads.to_float(exact_seed), float(bound)))
    assert checks.svg_close(float_image, image) is None
    # a circle's radius, one unit in its first decimal
    at = image.index(b' r="') + 4
    digit = image.index(b".", at) + 1
    changed = image[:digit] + bytes([48 + (image[digit] - 47) % 10]) \
        + image[digit + 1:]
    assert checks.digest(changed, ref["svg"][workloads.options_key(
        workloads.DEFAULT_OPTIONS)], "SVG") is not None
    assert checks.svg_close(changed, image) is not None


def test_twin_rows_names_the_bound_edge_defect():
    geometry, bends, bound = workloads.BOUND_EDGE
    seed = apollonian.realize_bends(geometry, bends)
    exact = apollonian.generate(seed, bound)
    fl_seed = apollonian.realize_bends(geometry, tuple(map(float, bends)))
    fl = apollonian.generate(fl_seed, float(bound))
    col = forms.bend_column(geometry)
    verdict, matched = checks.twin_rows(fl.rows, exact.rows, col, bound)
    assert (len(exact.rows), len(fl.rows), len(matched)) == (119, 115, 115)
    assert verdict.defect == checks.FLOAT_BOUND_EDGE
    # a row lost anywhere else is not the known defect
    verdict, _ = checks.twin_rows(fl.rows[1:], exact.rows, col, bound)
    assert verdict.defect is None


def test_round_seconds_take_the_median_ratio_of_each_call():
    runner = workloads.Runner()
    runner.rounds = [[2.0, 4.0], [6.0, 4.0], [4.0, 8.0]]
    runner.loops = [[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]]
    assert runner.seconds() == pytest.approx(7 * workloads.REFERENCE_LOOP_S)
    runner.rounds[2].append(1.0)
    runner.loops[2].append(1.0)
    with pytest.raises(RuntimeError):
        runner.seconds()


def span(name, start, end, parent=-1):
    return tracing.Span(name, start, end, parent)


def test_self_times_subtract_children():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, 0),
        span("c", 2.0, 3.0, 1),
        span("b", 5.0, 6.5, 0),
        span("a", 12.0, 13.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({"a": 10.0 - 3.0 - 1.5 + 1.0,
                                   "b": 2.0 + 1.5, "c": 1.0})
    assert tracing.root_time(spans) == pytest.approx(11.0)
    assert sum(selfs.values()) == pytest.approx(tracing.root_time(spans))


def test_tracer_nests_calls_and_restores_the_package():
    import inversive
    original = apollonian.generate
    tracer = tracing.Tracer()
    tracer.install(inversive)
    try:
        assert apollonian.generate is not original
        seed = apollonian.realize_bends("euclidean", (-1, 2, 2, 3))
        assert tracer.spans == []  # inactive until switched on
        tracer.active = True
        apollonian.generate(seed, 10)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert apollonian.generate is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "apollonian.generate"
    assert "forms.check_identity" in names
    assert all(s.parent == 0 for s in tracer.spans[1:])
    assert tracer.counts["apollonian.generate.calls"] == 1


def run_script(*args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_line(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_untraced_run_prints_the_end_to_end_metrics():
    result = result_line(run_script("--workload", "stream-render", "--seed", "3",
                                    "--seconds", "1", "--trace", "0",
                                    cwd=BENCH.parent))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_accounts_for_the_timed_phase():
    result = result_line(run_script("--workload", "config-ops", "--seed", "3",
                                    "--seconds", "1", "--trace", "1",
                                    cwd=BENCH.parent))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    selfs = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
    assert selfs + metrics["trace.unattributed_s"] == \
        pytest.approx(metrics["trace.timed_s"])
    assert metrics["forms.check_identity.calls"] > 0
    assert metrics["apollonian.realize_bends.failed"] > 0  # known defect


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_script("--workload", "gen-float", "--seed", "1", "--seconds", "1",
                      cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
