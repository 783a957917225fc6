"""The CLI digest under each numeric configuration this host can select, for the byte pins.

    python tests/portability.py

Runs ``tests/cli_digest.py`` in one child process per configuration, each
with ``OPENBLAS_NUM_THREADS=1``:

* ``OPENBLAS_CORETYPE`` set to each of ``CORETYPES``, the OpenBLAS kernel
  a ``DYNAMIC_ARCH`` build would pick on that CPU generation;
* ``NPY_DISABLE_CPU_FEATURES`` set to ``NPY_DISABLED`` with the kernel
  left to OpenBLAS, so that numpy's own loops run without AVX2 and up.

It prints one line per configuration (its settings, the run count and the
digest, or the child's exit code) and exits 1 if any two lines differ in
run count or digest, or a child fails.  The byte pins in the tests hold on
the reference configuration; this shows which others print other bytes.
Only the children's environment is set: it inherits this one, minus any
``OPENBLAS_CORETYPE`` or ``NPY_DISABLE_CPU_FEATURES`` already in it.  A
core type the CPU cannot run may crash its child, which is reported as a
failure.

pytest does not collect this file.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

DIGEST = Path(__file__).resolve().parent / "cli_digest.py"
CORETYPES = ("SkylakeX", "Haswell", "Sandybridge", "Prescott")
NPY_DISABLED = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
CONFIGS = [{"OPENBLAS_CORETYPE": core} for core in CORETYPES] + [
    {"NPY_DISABLE_CPU_FEATURES": NPY_DISABLED}
]


def digest(config: dict[str, str]) -> str:
    """``runs N sha256 HEX`` of the digest under one configuration, marked if the child failed."""
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env.update(config, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(DIGEST)], capture_output=True, text=True, env=env)
    line = " ".join(proc.stdout.split()[:4]) or " ".join(proc.stderr.strip().splitlines()[-1:])
    return line if proc.returncode == 0 else f"{line} (failed: exit {proc.returncode})"


def main() -> int:
    results = []
    for config in CONFIGS:
        results.append(digest(config))
        label = " ".join(f"{k}={v!r}" for k, v in config.items())
        print(f"{label:<70} {results[-1]}", flush=True)
    return 0 if len(set(results)) == 1 and "(failed" not in results[0] else 1


if __name__ == "__main__":
    sys.exit(main())
