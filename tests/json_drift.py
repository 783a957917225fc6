"""What moved in the CLI's output between this checkout and another commit.

    python tests/json_drift.py [--base COMMIT]

Reads every run of ``tests/cli_digest.py`` (``recorded(theta)`` at every
angle in ``THETAS``: ``grid``, ``mc_grid`` and the reversed-register runs,
as tables and as ``--json``) on this checkout and on a ``git archive`` of
COMMIT (default ``HEAD``), each in a fresh interpreter with that checkout's
own ``src/`` and ``cli_digest``.  A COMMIT whose ``cli_digest`` has no
``recorded`` is refused with one line: c035e2c is the oldest that has it.
It prints:

* ``runs``: how many runs each side made;
* ``changed``: how many runs differ in any byte;
* ``max_abs_float_diff``: the largest difference between two JSON floats
  at the same place of the same run;
* one line per run whose exit code, table bytes or stderr differ
  (``exit``, ``table``, ``stderr``), per JSON value that differs and is not
  a pair of floats (``json``), and per run only one side made (``only``).

``cli_digest.py`` says whether two checkouts print the same bytes; this says
by how much their JSON floats moved where they do not.

pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def dump(checkout: Path, out: Path) -> None:
    """Write every digest run of ``checkout`` as JSON: [argv, exit code, stdout, stderr]."""
    sys.path.insert(0, str(checkout / "tests"))
    import cli_digest  # puts the checkout's own src/ first on the path

    if not hasattr(cli_digest, "recorded"):
        raise SystemExit(f"json_drift: {checkout} has no cli_digest.recorded; the oldest base is c035e2c")
    runs = [
        [list(argv), *run] for theta in cli_digest.THETAS for argv, run in cli_digest.recorded(theta).items()
    ]
    out.write_text(json.dumps(runs))


def _is_float_pair(a, b) -> bool:
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
    return numbers and (isinstance(a, float) or isinstance(b, float))


def _walk(a, b, path: str, report: list[str]) -> float:
    """Largest float difference between two JSON values; other differences go to ``report``."""
    if _is_float_pair(a, b):
        if math.isnan(a) and math.isnan(b):
            return 0.0
        return abs(a - b) if a != b else 0.0
    if isinstance(a, dict) and isinstance(b, dict) and list(a) == list(b):
        return max((_walk(a[k], b[k], f"{path}.{k}", report) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max((_walk(x, y, f"{path}[{i}]", report) for i, (x, y) in enumerate(zip(a, b))), default=0.0)
    if a != b:
        report.append(f"{path}: base {a!r}, this {b!r}")
    return 0.0


def compare(base: list, this: list) -> tuple[int, float, list[str]]:
    """Changed runs, the largest JSON float difference, and a line per other difference."""
    base_runs = {tuple(argv): rest for argv, *rest in base}
    this_runs = {tuple(argv): rest for argv, *rest in this}
    lines = [f"only {side}: {' '.join(argv)}" for side, mine, other in (
        ("base", base_runs, this_runs), ("this", this_runs, base_runs)) for argv in mine if argv not in other]
    changed, drift = 0, 0.0
    for argv, (code, out, err) in this_runs.items():
        if argv not in base_runs or base_runs[argv] == [code, out, err]:
            continue
        changed += 1
        base_code, base_out, base_err = base_runs[argv]
        name = " ".join(argv)
        if base_code != code:
            lines.append(f"exit {name}: base {base_code}, this {code}")
        if base_err != err:
            lines.append(f"stderr {name}")
        if base_out == out:
            continue
        try:
            base_json, this_json = json.loads(base_out), json.loads(out)
        except ValueError:
            lines.append(f"table {name}")
            continue
        report: list[str] = []
        drift = max(drift, _walk(base_json, this_json, "$", report))
        lines += [f"json {name} at {item}" for item in report]
    return changed, drift, lines


def main(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Float drift of the CLI's output against another commit.")
    parser.add_argument("--base", default="HEAD", help="commit to compare with (default HEAD)")
    parser.add_argument("--dump", nargs=2, metavar=("CHECKOUT", "OUT"), help=argparse.SUPPRESS)
    opts = parser.parse_args(args)
    if opts.dump:
        dump(Path(opts.dump[0]), Path(opts.dump[1]))
        return 0
    repo = HERE.parent
    with tempfile.TemporaryDirectory(prefix="json_drift_") as tmp:
        base = Path(tmp) / "base"
        archive = subprocess.run(
            ["git", "-C", str(repo), "archive", opts.base], capture_output=True, check=True
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(base, filter="data")
        sides = []
        for name, checkout in (("base", base), ("this", repo)):
            out = Path(tmp) / f"{name}.json"
            code = subprocess.run([sys.executable, __file__, "--dump", str(checkout), str(out)]).returncode
            if code:
                return code
            sides.append(json.loads(out.read_text()))
    changed, drift, lines = compare(*sides)
    print(f"runs base {len(sides[0])} this {len(sides[1])}")
    print(f"changed {changed}")
    print(f"max_abs_float_diff {drift!r}")
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
