"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks, for every workload, that

* two runs with the same seed print identical ``rounds_per_op`` and MIS
  sizes, and a run with another seed prints different ones;
* a traced run prints every per-layer metric;
* a run whose first MIS check sees a corrupted set reports ``failed`` > 0,
  ``correct`` false, and exits non-zero;
* ambient ``REPRO_*`` settings (another engine, an observability
  directory) change neither the results nor what the run writes;

and that ``BENCHMARK.json`` names exactly the metrics the runs print, and
that the command fails without printing a result when the program's
sources are missing.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from harness import END_TO_END, PER_LAYER  # noqa: E402
from run import WORKLOADS  # noqa: E402

SECONDS = "1"


def _run(workload: str, seed: int, *extra: str, cwd: Path = ROOT, env=None):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", SECONDS, "--size", "tiny", *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600,
                          env=env)


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _fingerprint(proc) -> tuple:
    """(rounds_per_op, MIS-size sum) of one untraced run."""
    result = _result(proc)
    sizes = re.search(r"^mis_size_sum (\d+)", proc.stdout, re.MULTILINE)
    return result["metrics"]["rounds_per_op"]["value"], int(sizes.group(1))


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
          "BENCHMARK.json end_to_end matches the metrics untraced runs print")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
          "BENCHMARK.json per_layer matches the metrics traced runs print")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json lists every workload")

    for workload in WORKLOADS:
        first, again, other = _run(workload, 1), _run(workload, 1), _run(workload, 2)
        for proc in (first, again, other):
            check(proc.returncode == 0 and _result(proc)["correct"],
                  f"{workload}: untraced run passes its checks")
            check(set(_result(proc)["metrics"]) == set(END_TO_END),
                  f"{workload}: untraced run prints every end-to-end metric")
        check(_fingerprint(first) == _fingerprint(again),
              f"{workload}: same seed, same rounds_per_op and MIS sizes")
        check(_fingerprint(first) != _fingerprint(other),
              f"{workload}: another seed changes them")

        traced = _run(workload, 1, "--trace", "1")
        check(traced.returncode == 0 and set(_result(traced)["metrics"]) == set(PER_LAYER),
              f"{workload}: traced run prints every per-layer metric")

        with tempfile.TemporaryDirectory() as obs_dir:
            ambient = {**os.environ, "REPRO_MIS_ENGINE": "bulk", "REPRO_OBS_DIR": obs_dir,
                       "REPRO_OBS_TRACE": "1"}
            proc = _run(workload, 1, env=ambient)
            check(proc.returncode == 0 and _fingerprint(proc) == _fingerprint(first)
                  and not any(Path(obs_dir).iterdir()),
                  f"{workload}: ambient REPRO_* settings change neither results nor files")

        faulty = _run(workload, 1, "--inject-fault")
        result = _result(faulty)
        check(faulty.returncode != 0 and result["failed"] > 0 and not result["correct"],
              f"{workload}: a failed check makes the command exit non-zero")

    with tempfile.TemporaryDirectory() as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(WORKLOADS[0], 1, cwd=bare)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without the program's sources the command fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
