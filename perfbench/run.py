"""ewfs benchmark: three workloads, end-to-end metrics, and a traced per-layer run.

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is loaded from ``src/`` of that
checkout.  All load comes from this one process: it runs one ``ewfs`` child at
a time in a closed loop (the next op is sent only after the previous one has
finished), so at most one core is busy.  The seed fixes every generated input
(``--seed``, ``--theta`` and the angle lists the program receives).

``--trace 0`` measures for ``--seconds`` and prints the end-to-end metrics;
``--trace 1`` runs a fixed, seeded op list twice, traced and untraced, and
prints the per-layer metrics plus the tracing overhead.  ``--workload all``
runs every workload in turn.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the same figures for people, with the provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCHEMA = SRC / "ewfs" / "data" / "output.schema.json"
CHILD = BENCH_DIR / "child.py"
WORKLOADS = ("cli-session", "mc-large", "theta-sweep")
TWO_PI = 2.0 * math.pi
OP_TIMEOUT_S = 150.0

# The README's seven non-mc invocations; each op appends --theta and --json.
CLI_COMMANDS = (
    ["exact", "--semantics", "unitary"],
    ["exact", "--semantics", "collapse"],
    ["perspectives", "--agent", "Wbar", "--time", "n:10", "--rule", "collapse"],
    ["perspectives", "--agent", "Fbar", "--time", "n:20", "--rule", "own-record", "--cond", "r=tails"],
    ["audit", "--ruleset", "fr-mixed"],
    ["audit", "--ruleset", "all-collapse"],
    ["audit", "--ruleset", "all-unitary"],
)
ZERO_THETA_EVERY = 4   # cli-session: every 4th cycle of seven commands runs at theta = 0
MULTIPLE_EVERY = 10    # theta-sweep: every 10th angle is k * 2 pi, k = 0..3


@dataclass
class Sizes:
    """Work per run.  The self-tests shrink these; the benchmark uses the defaults."""

    mc_rounds: int = 1_000_000
    setup_repeats: int = 9
    sweep_block: int = 200  # angles per theta-sweep interpreter
    trace_ops: dict = field(default_factory=lambda: {"cli-session": 28, "mc-large": 2})


@dataclass
class Tally:
    """Op outcomes of one run."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def record(self, label: str, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{label}: {'; '.join(failures[:3])}")


# ---------------------------------------------------------------------------
# Generated inputs.
# ---------------------------------------------------------------------------


def cli_ops(seed: int):
    """Endless seeded cycle of the seven commands; theta uniform on [0, 2 pi) or 0."""
    rng = random.Random(seed)
    i = 0
    while True:
        cycle, k = divmod(i, len(CLI_COMMANDS))
        theta = 0.0 if cycle % ZERO_THETA_EVERY == 0 else rng.uniform(0.0, TWO_PI)
        yield CLI_COMMANDS[k] + ["--theta", repr(theta), "--json"]
        i += 1


def mc_ops(seed: int):
    """Endless (semantics, mc seed) pairs, alternating collapse and unitary."""
    rng = random.Random(seed)
    i = 0
    while True:
        yield ("collapse" if i % 2 == 0 else "unitary"), rng.randrange(2**31)
        i += 1


def sweep_angles(seed: int):
    """(warm-up angle, endless angles): uniform on [0, 2 pi), every 10th one k * 2 pi."""
    rng = random.Random(seed)
    warmup = rng.uniform(0.0, TWO_PI)

    def angles():
        i = 0
        while True:
            if i % MULTIPLE_EVERY == MULTIPLE_EVERY - 1:
                yield (i // MULTIPLE_EVERY % 4) * TWO_PI
            else:
                yield rng.uniform(0.0, TWO_PI)
            i += 1

    return warmup, angles()


# ---------------------------------------------------------------------------
# Children.
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class ChildResult:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float


class Runner:
    """Runs one child at a time and reaps it with ``os.wait4`` for its own rusage."""

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp
        self.env = child_env()
        self.live: set[subprocess.Popen] = set()

    def run(self, argv: list[str]) -> ChildResult:
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                    env=self.env, cwd=ROOT)
            code, wall, rss = self._reap(proc, t0)
        return ChildResult(code, out_path.read_text(encoding="utf-8", errors="replace"),
                           err_path.read_text(encoding="utf-8", errors="replace"), wall, rss)

    def spawn_pipe(self, argv: list[str]) -> subprocess.Popen:
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, env=self.env, cwd=ROOT, text=True)
        self.live.add(proc)
        return proc

    def finish_pipe(self, proc: subprocess.Popen) -> tuple[int, float]:
        """Close stdin, reap; returns (exit code, peak RSS in MB)."""
        if proc.stdin and not proc.stdin.closed:
            proc.stdin.close()
        code, _, rss = self._reap(proc, time.perf_counter())
        if proc.stdout:
            proc.stdout.close()
        return code, rss

    def _reap(self, proc: subprocess.Popen, t0: float) -> tuple[int, float, float]:
        self.live.add(proc)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.discard(proc)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def stop_all(self) -> None:
        for proc in list(self.live):
            proc.kill()
            try:
                os.wait4(proc.pid, 0)
            except ChildProcessError:
                pass
            proc.returncode = -9
        self.live.clear()


def ewfs_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "ewfs", *args]


def child_argv(*args: str) -> list[str]:
    return [sys.executable, str(CHILD), *args]


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# One op of each kind: run, check, return (wall time, RSS).
# ---------------------------------------------------------------------------


class Ops:
    def __init__(self, runner: Runner, tally: Tally, sizes: Sizes) -> None:
        self.runner, self.tally, self.sizes = runner, tally, sizes
        self.schema = checks.SchemaCheck(SCHEMA)
        self.mc_hashes: dict[str, str] = {}

    def cli(self, args: list[str], traced_agg: Path | None = None) -> ChildResult:
        argv = ewfs_argv(args) if traced_agg is None else child_argv("cli", str(traced_agg), "--", *args)
        res = self.runner.run(argv)
        bad = [] if res.code == 0 else [f"exit {res.code}: {res.stderr.strip()[-200:]}"]
        payload = _json_or_none(res.stdout) if not bad else None
        if not bad and payload is None:
            bad.append("stdout is not JSON")
        if payload is not None:
            bad += self.schema.failures(payload) or checks.cli_failures(args, payload)
        self.tally.record(" ".join(args), bad)
        return res

    def mc(self, semantics: str, seed: int, traced_agg: Path | None = None, alloc: bool = False) -> ChildResult:
        out_dir = self.runner.tmp / "mc_out"
        shutil.rmtree(out_dir, ignore_errors=True)
        args = ["mc", "--semantics", semantics, "--rounds", str(self.sizes.mc_rounds),
                "--seed", str(seed), "--out", str(out_dir)]
        if traced_agg is None:
            argv = ewfs_argv(args)
        else:
            argv = child_argv("cli", str(traced_agg), *(["--alloc"] if alloc else []), "--", *args)
        res = self.runner.run(argv)
        bad = [] if res.code == 0 else [f"exit {res.code}: {res.stderr.strip()[-200:]}"]
        if not bad:
            try:
                raw = (out_dir / "mc.json").read_bytes()
                payload = json.loads(raw)
                manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                bad.append(f"outputs unreadable: {exc}")
            else:
                bad += self.schema.failures(payload) + self.schema.failures(manifest)
                if not bad:
                    bad += checks.mc_failures(payload, self.sizes.mc_rounds)
                self.mc_hashes[f"{semantics}/{seed}"] = hashlib.sha256(raw).hexdigest()
        self.tally.record(f"mc {semantics} seed={seed}", bad)
        return res


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------


def p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[8] if len(xs) > 1 else xs[0]


def latency_metrics(dts: list[float], rounds: int | None = None) -> dict:
    """Per-op figures shared by every workload: an op evaluates one theta."""
    busy = sum(dts)
    p50 = statistics.median(dts)
    return {
        "cmd_p50_s": (p50, "s"),
        "cmd_p90_s": (p90(dts), "s"),
        "angles_per_s": (len(dts) / busy, "1/s"),
        "angle_p50_ms": (p50 * 1e3, "ms"),
        "angle_p90_ms": (p90(dts) * 1e3, "ms"),
        "rounds_per_s": ((rounds if rounds is not None else len(dts)) / busy, "1/s"),
    }


# ---------------------------------------------------------------------------
# Workloads, tracing off.
# ---------------------------------------------------------------------------


def _cli_setup(runner: Runner, sizes: Sizes, tally: Tally) -> float:
    """Median wall time of ``python -m ewfs --version``: interpreter plus package import."""
    times = []
    for _ in range(sizes.setup_repeats):
        res = runner.run(ewfs_argv(["--version"]))
        if res.code != 0 or not res.stdout.startswith("ewfs "):
            tally.record("setup", [f"--version exit {res.code}"])
        times.append(res.wall_s)
    return statistics.median(times)


def _closed_loop(items, op, seconds: float) -> tuple[list[float], float]:
    """Run ``op`` on each item until ``seconds`` have passed: (op wall times, peak RSS)."""
    dts, rss = [], []
    deadline = time.perf_counter() + seconds
    for item in items:
        res = op(item)
        dts.append(res.wall_s)
        rss.append(res.rss_mb)
        if time.perf_counter() >= deadline:
            break
    return dts, max(rss)


def run_cli_session(seed: int, seconds: float, sizes: Sizes, runner: Runner, tally: Tally, info: dict) -> dict:
    setup = _cli_setup(runner, sizes, tally)
    ops = Ops(runner, tally, sizes)
    dts, rss = _closed_loop(cli_ops(seed), ops.cli, seconds)
    return {"setup_s": (setup, "s"), "peak_rss_mb": (rss, "MB"), **latency_metrics(dts)}


def run_mc_large(seed: int, seconds: float, sizes: Sizes, runner: Runner, tally: Tally, info: dict) -> dict:
    setup = _cli_setup(runner, sizes, tally)
    ops = Ops(runner, tally, sizes)
    dts, rss = _closed_loop(mc_ops(seed), lambda op: ops.mc(*op), seconds)
    info["mc_payload_sha256"] = ops.mc_hashes
    return {"setup_s": (setup, "s"), "peak_rss_mb": (rss, "MB"),
            **latency_metrics(dts, rounds=len(dts) * sizes.mc_rounds)}


class Sweep:
    """One theta-sweep interpreter driven over a pipe, one angle per message."""

    def __init__(self, runner: Runner, warmup: float, trace: bool = False) -> None:
        self.runner = runner
        t0 = time.perf_counter()
        self.proc = runner.spawn_pipe(child_argv("sweep", repr(warmup), *(["--trace"] if trace else [])))
        ready = _json_or_none(self.proc.stdout.readline())
        self.setup_s = time.perf_counter() - t0
        if not ready or not ready.get("ready"):
            self.close()
            raise RuntimeError("theta-sweep interpreter did not start")

    def op(self, theta: float, tally: Tally) -> float | None:
        self.proc.stdin.write(json.dumps({"theta": theta}) + "\n")
        self.proc.stdin.flush()
        result = _json_or_none(self.proc.stdout.readline())
        if result is None:
            tally.record(f"theta={theta!r}", ["no reply from the sweep interpreter"])
            return None
        if "error" in result:
            tally.record(f"theta={theta!r}", [result["error"]])
        else:
            tally.record(f"theta={theta!r}", checks.sweep_failures(theta, result))
        return result["dt"]

    def close(self) -> tuple[int, float, dict | None]:
        """Send quit, read the trace aggregate if any, reap: (exit code, RSS MB, aggregate)."""
        agg = None
        try:
            self.proc.stdin.write(json.dumps("quit") + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
            agg = (_json_or_none(line) or {}).get("aggregate")
        except (BrokenPipeError, OSError):
            pass
        code, rss = self.runner.finish_pipe(self.proc)
        return code, rss, agg


def run_theta_sweep(seed: int, seconds: float, sizes: Sizes, runner: Runner, tally: Tally, info: dict) -> dict:
    """Fresh interpreters of ``sizes.sweep_block`` angles each, until time is up.

    Peak RSS is taken from interpreters that completed their block, so it
    reads the memory held after a fixed number of angles, whatever the speed.
    """
    warmup, angles = sweep_angles(seed)
    setups = []
    for _ in range(sizes.setup_repeats):
        sweep = Sweep(runner, warmup)
        setups.append(sweep.setup_s)
        _close_sweep(sweep, tally)
    dts, full_rss, part_rss = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sweep = Sweep(runner, warmup)
        done = 0
        for theta in itertools.islice(angles, sizes.sweep_block):
            dt = sweep.op(theta, tally)
            if dt is None:
                break
            dts.append(dt)
            done += 1
            if time.perf_counter() >= deadline:
                break
        rss = _close_sweep(sweep, tally)
        (full_rss if done == sizes.sweep_block else part_rss).append(rss)
    if not dts:
        raise RuntimeError("theta-sweep ran no op")
    return {"setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (max(full_rss or part_rss), "MB"), **latency_metrics(dts)}


def _close_sweep(sweep: Sweep, tally: Tally) -> float:
    code, rss, _ = sweep.close()
    tally.record("sweep exit", [] if code == 0 else [f"exit {code}"])
    return rss


# ---------------------------------------------------------------------------
# Traced run: fixed seeded op list, traced and untraced, plus probes.
# ---------------------------------------------------------------------------


def _load_agg(path: Path, tally: Tally, label: str) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        tally.record(label, ["traced child wrote no aggregate"])
        return None


def _take(gen, n: int) -> list:
    return [next(gen) for _ in range(n)]


def trace_cli_session(seed, sizes, runner, tally, info):
    ops = Ops(runner, tally, sizes)
    aggs, plain, traced = [], [], []
    for i, args in enumerate(_take(cli_ops(seed), sizes.trace_ops["cli-session"])):
        agg_path = runner.tmp / f"agg{i}.json"
        plain.append(ops.cli(args).wall_s)
        traced.append(ops.cli(args, traced_agg=agg_path).wall_s)
        aggs.append(_load_agg(agg_path, tally, " ".join(args)))
    return aggs, _overhead(plain, traced), 0


def trace_mc_large(seed, sizes, runner, tally, info):
    ops = Ops(runner, tally, sizes)
    op_list = _take(mc_ops(seed), sizes.trace_ops["mc-large"])
    aggs, plain, traced = [], [], []
    for i, (semantics, mc_seed) in enumerate(op_list):
        agg_path = runner.tmp / f"agg{i}.json"
        plain.append(ops.mc(semantics, mc_seed).wall_s)
        traced.append(ops.mc(semantics, mc_seed, traced_agg=agg_path).wall_s)
        aggs.append(_load_agg(agg_path, tally, f"mc {semantics}"))
    # tracemalloc slows allocation several-fold, so the peak comes from its own
    # untimed run of the first op and none of its spans are kept.
    alloc_path = runner.tmp / "alloc.json"
    ops.mc(*op_list[0], traced_agg=alloc_path, alloc=True)
    alloc = _load_agg(alloc_path, tally, "mc alloc")
    info["mc_payload_sha256"] = ops.mc_hashes
    return aggs, _overhead(plain, traced), (alloc or {}).get("peak_alloc_bytes", 0)


def trace_theta_sweep(seed, sizes, runner, tally, info):
    """Two interpreters, untraced and traced, take each angle in turn."""
    warmup, angles = sweep_angles(seed)
    sweeps = [Sweep(runner, warmup), Sweep(runner, warmup, trace=True)]
    sums: list[list[float]] = [[], []]
    for theta in _take(angles, sizes.sweep_block):
        dts = [sweep.op(theta, tally) for sweep in sweeps]
        if None in dts:
            break
        for acc, dt in zip(sums, dts):
            acc.append(dt)
    agg = None
    for sweep in sweeps:
        code, _, agg = sweep.close()
        tally.record("sweep exit", [] if code == 0 else [f"exit {code}"])
    if agg is None:
        tally.record("sweep trace", ["traced sweep wrote no aggregate"])
    return [agg], _overhead(*sums), 0


def _overhead(plain: list[float], traced: list[float]) -> float:
    return (sum(traced) / sum(plain) - 1.0) * 100.0


def run_probes(runner: Runner, tally: Tally) -> dict:
    res = runner.run(child_argv("probe"))
    values = _json_or_none(res.stdout) if res.code == 0 else None
    tally.record("probe", [] if values else [f"probe exit {res.code}: {res.stderr.strip()[-200:]}"])
    return values or {}


TRACED = {"cli-session": trace_cli_session, "mc-large": trace_mc_large, "theta-sweep": trace_theta_sweep}


def run_traced(workload: str, seed: int, sizes: Sizes, runner: Runner, tally: Tally, info: dict) -> dict:
    """Per-layer metrics: (aggregates, overhead %, tracemalloc peak) of the workload, plus probes."""
    aggs, overhead, peak_alloc = TRACED[workload](seed, sizes, runner, tally, info)
    aggs = [a for a in aggs if a]
    merged = tracing.merge(aggs)
    merged["peak_alloc_bytes"] = peak_alloc
    metrics = tracing.span_metrics(merged)
    imports = [a["import_s"] for a in aggs if "import_s" in a]
    metrics["cli.import_s"] = (statistics.median(imports) if imports else 0.0, "s")
    probes = run_probes(runner, tally)
    for name, unit in tracing.per_layer_spec():
        if name.startswith("probe."):
            metrics[name] = (probes.get(name, 0.0), unit)
    metrics["trace.overhead_pct"] = (overhead, "%")
    return metrics


# ---------------------------------------------------------------------------
# Provenance and output.
# ---------------------------------------------------------------------------


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance(workload: str, seed: int) -> dict:
    files = sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts
                   and ".egg-info" not in str(p))
    digest = hashlib.sha256()
    lines = 0
    for p in files:
        data = p.read_bytes()
        digest.update(str(p.relative_to(SRC)).encode() + b"\0" + data)
        if p.suffix == ".py":
            lines += data.count(b"\n")
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


RUNNERS = {"cli-session": run_cli_session, "mc-large": run_mc_large, "theta-sweep": run_theta_sweep}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes | None = None) -> dict:
    """Run one workload; returns the result object plus provenance and error details."""
    sizes = sizes or Sizes()
    tally = Tally()
    info = provenance(workload, seed)
    work_root = ROOT / ".perfbench_tmp"
    work_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work_root))
    runner = Runner(tmp)
    try:
        if trace:
            metrics = run_traced(workload, seed, sizes, runner, tally, info)
        else:
            metrics = RUNNERS[workload](seed, seconds, sizes, runner, tally, info)
    finally:
        runner.stop_all()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return {"result": result, "provenance": info, "errors": tally.errors}


def report(workload: str, out: dict) -> None:
    result = out["result"]
    print(f"== {workload}: attempted={result['attempted']} failed={result['failed']} "
          f"error_rate={result['failed'] / max(result['attempted'], 1)!r}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    for err in out["errors"]:
        print(f"  FAILED {err}")
    print("provenance " + json.dumps(out["provenance"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ewfs" / "__init__.py").is_file() or not SCHEMA.is_file():
        print(f"error: no ewfs sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(name, out)
        results[name] = out["result"]
    print(json.dumps(results[names[0]] if len(names) == 1 else {"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
