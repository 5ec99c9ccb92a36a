"""Capture the paper-repro reference outputs the bench checks against.

    python3 bench/capture_refs.py

Writes bench/ref/table1.csv (compared byte for byte), table2_<size>.csv
(divergence flags exact, finite cells within workloads.TABLE2_RTOL) and
figures_<size>.json (file name -> [header, row count]). Run it only when a
change to the program is meant to change these outputs, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from dampwave.cli import run_command  # noqa: E402


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run_command(argv)
    if code != 0:
        raise SystemExit(f"{argv[0]} exited {code}")


def main():
    os.makedirs(workloads.REF_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        run(["table1", "--out", os.path.join(workloads.REF_DIR, "table1.csv")])
        for size, p in workloads.PAPER.items():
            run(["table2", "--out", os.path.join(workloads.REF_DIR, f"table2_{size}.csv"),
                 "--t-final", repr(p["table2_t"])])
            figs = os.path.join(tmp, size)
            run(["figures", "--out-dir", figs, "--t-final", repr(p["figures_t"])])
            expected = {}
            for name in sorted(os.listdir(figs)):
                header, rows = workloads.read_csv(os.path.join(figs, name))
                expected[name] = [header, len(rows)]
            lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in expected.items()]
            with open(os.path.join(workloads.REF_DIR, f"figures_{size}.json"), "w") as fh:
                fh.write("{\n" + ",\n".join(lines) + "\n}\n")
            shutil.rmtree(figs)


if __name__ == "__main__":
    main()
