"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at its tiny size, untraced and traced, and checks
that the last output line is the result object with every metric that
BENCHMARK.json names, each with its unit.  Then checks that failures
rank above every success, that a known defect counts as known only
inside its region, and that the benchmark refuses to run without the
package sources beside it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_result(spec, workload, trace):
    proc = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, \
        set(result["metrics"]) ^ {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
    print(f"ok  {workload:6s} trace {trace}  "
          f"{len(result['metrics'])} metrics")


def check_ranking_and_regions():
    sys.path.insert(0, str(HERE))
    from run import _ranked
    from workloads import is_known
    # a failure sits at the summed successes, whatever its own time
    times = _ranked([("a", 0.5, True), ("a", 0.01, False),
                     ("b", 0.2, True), ("c", 9.0, False)], 30.0)
    assert times == {"a": [0.5, 0.7], "b": [0.2], "c": [0.7]}, times
    assert _ranked([("a", 0.1, False)], 30.0) == {"a": [30.0]}
    inside = {"alpha": 0.3, "rho": 0.95}     # alpha rho_hat = 0.015
    outside = {"alpha": 1.5, "rho": 0.55}
    assert is_known("sweep", "survival", "TypeError", inside)
    assert not is_known("sweep", "survival", "TypeError", outside)
    assert not is_known("sweep", "survival", "ValueError", inside)
    assert not is_known("grid", "survival", "TypeError", inside)
    assert is_known("verify", "suite", "exit 3", {"alpha": 0.8, "rho": 0.6})
    assert not is_known("verify", "suite", "exit 3",
                        {"alpha": 1.3, "rho": 0.5})
    print("ok  failures rank last; known defects hold only in their region")


def check_bare_directory():
    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(["--workload", "grid", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  refuses to run without the package sources")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, w["name"], trace)
    check_ranking_and_regions()
    check_bare_directory()


if __name__ == "__main__":
    main()
