"""benchmarks/bench_check44.py, bench_covers.py and bench_pairs.py: the
commit label, on a temporary git repo, the fork-and-measure helper and the
bytecode it runs on, and the median rows."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_bench(name="bench_check44"):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git(root, *args):
    return subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com", *args],
        cwd=root, capture_output=True, text=True, check=True,
    ).stdout.strip()


@pytest.fixture
def repo(tmp_path):
    git(tmp_path, "init", "-q")
    (tmp_path / "code.py").write_text("x = 1\n")
    (tmp_path / "BENCH_hurwitz.json").write_text("[]\n")
    git(tmp_path, "add", "code.py", "BENCH_hurwitz.json")
    git(tmp_path, "commit", "-q", "-m", "seed")
    return tmp_path


def test_label_ignores_appended_bench_rows_and_untracked_files(repo):
    label = load_bench().commit_label
    head = git(repo, "describe", "--always")
    assert label(repo) == head
    (repo / "BENCH_hurwitz.json").write_text('[\n{"p": 29}\n]\n')
    (repo / "scratch.txt").write_text("untracked\n")
    assert label(repo) == head


@pytest.mark.parametrize("staged", [False, True])
def test_label_marks_tracked_code_changes_dirty(repo, staged):
    label = load_bench().commit_label
    (repo / "code.py").write_text("x = 2\n")
    if staged:
        git(repo, "add", "code.py")
    assert label(repo) == git(repo, "describe", "--always") + "-dirty"


def test_row_takes_the_median_of_the_runs():
    runs = [
        {"wall_s": 0.5, "peak_rss_mb": 30.0, "order": 12180},
        {"wall_s": 0.3, "peak_rss_mb": 31.0, "order": 12180},
        {"wall_s": 0.9, "peak_rss_mb": 29.0, "order": 12180},
    ]
    assert load_bench().row("abc1234", 29, runs, "machine") == {
        "commit": "abc1234", "p": 29, "order": 12180, "wall_s": 0.5, "peak_rss_mb": 30.0,
        "runs": 3, "stat": "median", "machine": "machine",
    }


def test_every_p_runs_three_times():
    # one run of p = 197 spread over 49 to 71 s: a row is the median of three
    bench = load_bench()
    assert bench.RUNS == 3
    assert bench.PRIMES == (29, 43, 71, 83, 113, 127, 197)


def test_label_ignores_every_bench_file(repo):
    (repo / "BENCH_covers.json").write_text("[]\n")
    git(repo, "add", "BENCH_covers.json")
    git(repo, "commit", "-q", "-m", "covers rows")
    head = git(repo, "describe", "--always")
    (repo / "BENCH_covers.json").write_text('[\n{"covers": 200}\n]\n')
    assert load_bench().commit_label(repo) == head


def test_measure_reports_the_command_output_time_and_memory():
    root = Path(__file__).resolve().parents[1]
    result = load_bench().measure([sys.executable, "-c", "print('ok')"], root)
    assert result["stdout"] == "ok\n"
    assert result["wall_s"] > 0 and result["peak_rss_mb"] > 1


def test_covers_row_takes_the_median_of_the_runs():
    runs = [
        {"wall_s": 0.5, "sweep_s": 0.2, "peak_rss_mb": 30.0},
        {"wall_s": 0.3, "sweep_s": 0.4, "peak_rss_mb": 31.0},
        {"wall_s": 0.9, "sweep_s": 0.3, "peak_rss_mb": 29.0},
    ]
    assert load_bench("bench_covers").row("abc1234", runs, "machine") == {
        "commit": "abc1234", "workload": "criterion4", "covers": 200, "wall_s": 0.5,
        "sweep_s": 0.3, "peak_rss_mb": 30.0, "runs": 3, "stat": "median", "machine": "machine",
    }


def test_pairs_row_takes_the_median_of_the_runs():
    runs = [
        {"wall_s": 0.5, "command_s": 0.06, "peak_rss_mb": 20.0},
        {"wall_s": 0.3, "command_s": 0.04, "peak_rss_mb": 21.0},
        {"wall_s": 0.9, "command_s": 0.05, "peak_rss_mb": 19.0},
    ]
    bench = load_bench("bench_pairs")
    assert bench.row("abc1234", "group search --group psl2:29", runs, "machine") == {
        "commit": "abc1234", "command": "hc group search --group psl2:29", "wall_s": 0.5,
        "command_s": 0.05, "peak_rss_mb": 20.0, "runs": 3, "stat": "median",
        "machine": "machine",
    }
    assert bench.COMMANDS[0] == "maximal miller --family symmetric --n 8"


def test_measure_runs_the_child_on_bytecode_compiled_before_it(tmp_path, monkeypatch):
    # a shell that sets PYTHONDONTWRITEBYTECODE would make every child
    # compile the checkout again, inside its timing
    bench = load_bench()
    package = tmp_path / "src" / "probe"
    package.mkdir(parents=True)
    source = package / "__init__.py"
    source.write_text("X = 1\n")
    cached = importlib.util.cache_from_source(str(source))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    cmd = [
        sys.executable, "-c",
        f"import os, sys; print(os.path.exists({cached!r}), sys.dont_write_bytecode,"
        " 'PYTHONDONTWRITEBYTECODE' in os.environ)",
    ]
    assert bench.measure(cmd, tmp_path)["stdout"].split() == ["True", "False", "False"]
    # up-to-date bytecode is read, not written again
    written = Path(cached).stat().st_mtime_ns
    assert bench.measure(cmd, tmp_path)["stdout"].split() == ["True", "False", "False"]
    assert Path(cached).stat().st_mtime_ns == written
