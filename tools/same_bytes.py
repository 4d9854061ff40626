"""Hash every file that the benchmark workloads write, to show that a change keeps bytes.

For meeting and hypotheses seeds 1-3 it writes the workload inputs with this
checkout's perfbench/inputs.py, runs run_full on each meeting session and the
diarize grid plus fusion on each hypotheses session, with the default config.
It also builds tests/conftest.py's demo session (seed 0) with this checkout's
code and runs run_full on it. It prints one JSON object that maps every input
and output file, outside report/ and .cache-key, to its sha256. Run it in two
checkouts and diff the two maps:

    PYTHONPATH=src python3 tools/same_bytes.py > same_bytes.json
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

# Fixed before numpy loads, as perfbench/run.py does: WPE's and GSS's WAV bytes
# depend on the BLAS thread count, so every map is made at one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]

import conftest  # noqa: E402  (the checkout's tests/conftest.py)
import inputs  # noqa: E402  (the checkout's perfbench/inputs.py)

import farfield.pipeline as pipeline  # noqa: E402

SEEDS = (1, 2, 3)


def _meeting(session: dict, config: dict, run_dir: Path) -> None:
    pipeline.run_full(session, config, run_dir)


def _hypotheses(session: dict, config: dict, run_dir: Path) -> None:
    grid = pipeline.run_diarize_grid(session, config, run_dir)
    pipeline.run_fusion(session, config, run_dir, grid["per_channel"])


RUNS = {"meeting": _meeting, "hypotheses": _hypotheses}
# (name, seed, input writer, run) of each session
JOBS = [(workload, seed, inputs.MAKERS[workload], run)
        for workload, run in RUNS.items() for seed in SEEDS]
JOBS.append(("demo", 0, conftest.build_demo_session, _meeting))


def _hashes(root: Path) -> dict:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != ".cache-key"
        and "report" not in path.relative_to(root).parts
    }


def main() -> None:
    config = pipeline.load_config()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, seed, make, run in JOBS:
            data = root / f"{name}-{seed}" / "inputs"
            data.mkdir(parents=True)
            make(data, seed)
            session = pipeline.load_manifest(data / "manifest.json")[0]
            run(session, config, data.parent / "run")
        print(json.dumps(_hashes(root), indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
