"""Processes the benchmark spawns, one at a time, with ``src/`` on ``PYTHONPATH``.

    child.py cli AGG_PATH [--alloc] -- EWFS_ARGV...
        Traced CLI run: import ``ewfs.cli``, install the tracer, call
        ``ewfs.cli.main(argv)`` and write the span aggregate to AGG_PATH.
    child.py sweep WARMUP_THETA [--trace]
        theta-sweep interpreter: import ``ewfs``, run one untimed warm-up
        angle, print ``ready``, then answer one JSON line per angle read from
        stdin until ``quit``.  With ``--trace`` the last line is the aggregate.
    child.py probe
        Print median timings of calls no workload reaches at the seed.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from pathlib import Path

import checks
import tracer as tracing


SRC = Path(__file__).resolve().parent.parent / "src"


def _check_source() -> None:
    """Refuse to measure an ``ewfs`` that is not this checkout's."""
    import ewfs

    if not Path(ewfs.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"ewfs imported from {ewfs.__file__}, not from {SRC}")


def cli_main(agg_path: str, alloc: bool, argv: list[str]) -> int:
    t0 = time.perf_counter()
    import ewfs.cli

    import_s = time.perf_counter() - t0
    _check_source()
    tr = tracing.Tracer(alloc=alloc)
    tracing.install(tr)
    try:
        code = ewfs.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    agg = tr.aggregate()
    agg["theta_cache"] = tracing.theta_caches()
    agg["import_s"] = import_s
    Path(agg_path).write_text(json.dumps(agg), encoding="utf-8")
    return code


def sweep_op(theta: float) -> dict:
    """One theta-sweep op: both exact joints, all three audits, the assignment grid."""
    from ewfs import perspectives, protocol, reasoning

    joints = {}
    for semantics in ("collapse", "unitary"):
        joint = protocol.exact_joint(protocol.ProtocolConfig(semantics=semantics, theta=theta))
        joints[semantics] = [[wb, w, p] for (wb, w), p in joint.entries.items()]
    audits = {}
    for ruleset in reasoning.RULESET_NAMES:
        report = reasoning.audit(ruleset, theta)
        audits[ruleset] = [report.contradiction, report.witness]
    purities = []
    for agent, time_, cond, rule in checks.sweep_grid():
        p = perspectives.Perspective(agent, time_, cond, perspectives.AssignmentRule(rule))
        rho = perspectives.assign(p, checks.default_subsystems(time_), theta)
        purities.append(rho.purity())
    return {"joints": joints, "audits": audits, "purities": purities}


def sweep_main(warmup: float, trace: bool) -> int:
    t0 = time.perf_counter()
    import ewfs  # noqa: F401

    import_s = time.perf_counter() - t0
    _check_source()
    sweep_op(warmup)
    tr = None
    if trace:
        tr = tracing.Tracer()
        tracing.install(tr)
        base = tracing.theta_caches()
    print(json.dumps({"ready": True, "import_s": import_s}), flush=True)
    for line in sys.stdin:
        msg = json.loads(line)
        if msg == "quit":
            break
        t = time.perf_counter()
        try:
            result = sweep_op(msg["theta"])
        except Exception as exc:  # reported as a failed op, the sweep goes on
            result = {"error": f"{type(exc).__name__}: {exc}"}
        result["dt"] = time.perf_counter() - t
        print(json.dumps(result), flush=True)
    if tr is not None:
        agg = tr.aggregate()
        end = tracing.theta_caches()
        agg["theta_cache"] = {
            "hits": end["hits"] - base["hits"],
            "misses": end["misses"] - base["misses"],
            "entries": end["entries"],
        }
        print(json.dumps({"aggregate": agg}), flush=True)
    return 0


def _median_ms(fn, repeats: int) -> float:
    times = []
    for i in range(repeats):
        t = time.perf_counter()
        fn(i)
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1e3


def probe_main() -> int:
    """dephase on the 36-dim state (6 projectors) and run_round per semantics."""
    from ewfs import protocol, qcore

    _check_source()
    rho = qcore.pure_density(protocol.global_state(0.7, protocol.T20))
    out = {"probe.qcore.dephase_ms": _median_ms(lambda i: qcore.dephase(rho, ("R", "Fbar")), 31)}
    for semantics, repeats in (("collapse", 201), ("unitary", 2001)):
        config = protocol.ProtocolConfig(semantics=semantics, theta=0.7, seed=11)
        protocol.run_round(config, protocol.round_rng(11, 0))
        out[f"probe.protocol.run_round.{semantics}_ms"] = _median_ms(
            lambda i: protocol.run_round(config, protocol.round_rng(11, i), i), repeats
        )
    if not all(math.isfinite(v) and v > 0 for v in out.values()):
        return 1
    print(json.dumps(out), flush=True)
    return 0


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli":
        sep = argv.index("--")
        return cli_main(argv[1], "--alloc" in argv[2:sep], argv[sep + 1:])
    if mode == "sweep":
        return sweep_main(float(argv[1]), "--trace" in argv[2:])
    if mode == "probe":
        return probe_main()
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
