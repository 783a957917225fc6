import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ewfs
from ewfs import cli, perspectives
from ewfs.protocol import SAMPLE_CHUNK, ProtocolConfig, exact_record_distribution

from _oracles import loop_episode_lengths, loop_tally, unchunked_sample_index

SCHEMA = json.loads(
    (Path(ewfs.__file__).parent / "data" / "output.schema.json").read_text(encoding="utf-8")
)

# The CLI child imports the same ewfs as this process, installed or not.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, (str(Path(ewfs.__file__).parents[1]), os.environ.get("PYTHONPATH")))
    ),
}


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "ewfs", *args],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def cli_json(*args):
    proc = run_cli(*args, "--json")
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, SCHEMA)
    return payload


def cell_of(payload, wbar, w):
    for cell in payload["cells"]:
        if cell["wbar"] == wbar and cell["w"] == w:
            return cell["probability"]
    raise KeyError((wbar, w))


def test_exact_unitary_golden():
    payload = cli_json("exact", "--semantics", "unitary", "--theta", "0")
    ok_cell = cell_of(payload, "okbar", "ok")
    assert ok_cell["fraction"] == "1/12"
    assert ok_cell["value"] == pytest.approx(1.0 / 12.0, abs=1e-12)
    assert cell_of(payload, "failbar", "fail")["fraction"] == "3/4"


def test_exact_collapse_golden():
    payload = cli_json("exact", "--semantics", "collapse", "--theta", "1.57")
    for wbar in ("okbar", "failbar"):
        for w in ("ok", "fail"):
            cell = cell_of(payload, wbar, w)
            assert cell["value"] == pytest.approx(0.25, abs=1e-12)
            assert cell["fraction"] == "1/4"


def test_exact_near_pi():
    payload = cli_json("exact", "--semantics", "unitary", "--theta", "3.14159265")
    cell = cell_of(payload, "okbar", "fail")
    assert cell["value"] == pytest.approx(0.75, abs=1e-8)


def test_exact_table_output():
    proc = run_cli("exact", "--semantics", "unitary")
    assert "okbar" in proc.stdout
    assert "1/12" in proc.stdout


def test_exact_is_seed_free_flagwise():
    a = run_cli("exact", "--semantics", "unitary", "--json").stdout
    b = run_cli("exact", "--semantics", "unitary", "--json").stdout
    assert a == b


def test_mc_deterministic_given_seed():
    args = ("mc", "--semantics", "unitary", "--rounds", "2000", "--seed", "42", "--json")
    a = run_cli(*args).stdout
    b = run_cli(*args).stdout
    assert a == b
    c = run_cli("mc", "--semantics", "unitary", "--rounds", "2000", "--seed", "7", "--json").stdout
    assert a != c


def test_mc_payload_shape_and_convergence():
    payload = cli_json("mc", "--semantics", "unitary", "--rounds", "20000", "--seed", "42")
    freq = {(f["wbar"], f["w"]): f for f in payload["frequencies"]}
    cell = freq[("okbar", "ok")]
    assert abs(cell["frequency"] - 1.0 / 12.0) < 5 * max(cell["std_error"], 1e-6)
    assert payload["halting"]["episodes"] > 0
    total = sum(h["count"] * h["length"] for h in payload["halting"]["histogram"])
    assert total + payload["halting"]["leftover_rounds"] == payload["rounds"]


# sha256 of mc.json and halting_histogram.csv for --rounds 100000 --seed 42,
# recorded from the per-round sampler before the columnar one replaced it.
# The collapse mc.json was pinned again when collapse became unitary dynamics
# plus pointer dephasing: only its four exact 1/4 values (0.2500000000000001
# -> 0.25000000000000006) and expected_mean (3.9999999999999982 ->
# 3.999999999999999) moved, each closer to the exact value; counts and
# fractions did not change.
MC_GOLDEN_SHA256 = {
    "unitary": (
        "43ad424798784fea4bd4d5ab88e856e574c26f592bf6184ec064bad8e738b341",
        "551459332254c781ee1eb6fb076e073f1a967dd45c5f2d71e0994f793f257890",
    ),
    "collapse": (
        "c0277ad313cff66f446c9ecab0c839119b19a018fc8850c932c586f5f81a68b3",
        "674d156c9390d7a0135f39da98235f236c0c9047c630029f5391a8d6bcb17eb3",
    ),
}


@pytest.mark.parametrize("semantics", sorted(MC_GOLDEN_SHA256))
def test_mc_output_bytes_golden(tmp_path, semantics):
    run_cli(
        "mc", "--semantics", semantics, "--rounds", "100000", "--seed", "42",
        "--out", str(tmp_path),
    )
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("mc.json", "halting_histogram.csv")
    )
    assert digests == MC_GOLDEN_SHA256[semantics]


def _main_in_process(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(list(argv)) == 0
    return out.getvalue()


@settings(max_examples=4, deadline=None)
@example(semantics="collapse", theta=0.7, rounds=3 * SAMPLE_CHUNK + 7, seed=3)
@example(semantics="unitary", theta=0.0, rounds=SAMPLE_CHUNK, seed=42)
@given(
    semantics=st.sampled_from(["unitary", "collapse"]),
    theta=st.floats(-10, 10),
    rounds=st.integers(1, 3 * SAMPLE_CHUNK + 7),
    seed=st.integers(0, 2**32),
)
def test_mc_out_is_deterministic_and_matches_single_draw(semantics, theta, rounds, seed):
    argv = ["mc", "--semantics", semantics, f"--theta={theta!r}", "--rounds", str(rounds),
            "--seed", str(seed)]
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for run in ("a", "b"):
            _main_in_process(*argv, "--out", str(Path(tmp) / run))
            files.append({p.name: p.read_bytes() for p in (Path(tmp) / run).iterdir()})
    assert files[0] == files[1]
    payload = json.loads(files[0]["mc.json"])
    dist = exact_record_distribution(ProtocolConfig(semantics=semantics, theta=theta))
    keys = tuple(dist)
    index = unchunked_sample_index(list(dist.values()), rounds, seed).tolist()
    counts = {(f["wbar"], f["w"]): f["count"] for f in payload["frequencies"] if f["count"]}
    assert counts == loop_tally(keys, index)
    lengths = loop_episode_lengths(keys, index)
    halting = payload["halting"]
    assert {h["length"]: h["count"] for h in halting["histogram"]} == Counter(lengths)
    assert (halting["episodes"], halting["leftover_rounds"]) == (len(lengths), rounds - sum(lengths))


def test_mc_writes_files_and_manifest(tmp_path):
    out = tmp_path / "runs"
    run_cli(
        "mc", "--semantics", "collapse", "--rounds", "5000", "--seed", "1",
        "--out", str(out),
    )
    payload = json.loads((out / "mc.json").read_text())
    jsonschema.validate(payload, SCHEMA)
    manifest = json.loads((out / "manifest.json").read_text())
    jsonschema.validate(manifest, SCHEMA)
    assert manifest["described_command"] == "mc"
    assert set(manifest["outputs"]) == {"mc.json", "halting_histogram.csv"}
    for name in manifest["outputs"]:
        assert (out / name).exists()
    csv_text = (out / "halting_histogram.csv").read_text()
    assert csv_text.splitlines()[0] == "length,count"


def test_perspectives_purity_mixture():
    payload = cli_json("perspectives", "--agent", "Wbar", "--time", "n:10", "--rule", "collapse")
    assert payload["purity"] == pytest.approx(5.0 / 9.0, abs=1e-10)
    preds = {p["measurement"]: p for p in payload["predictions"]}
    wbar = {o["label"]: o["probability"]["value"] for o in preds["wbar"]["outcomes"]}
    assert wbar["okbar"] == pytest.approx(0.5, abs=1e-10)


def test_perspectives_own_record_pure():
    payload = cli_json(
        "perspectives", "--agent", "Fbar", "--time", "n:20", "--rule", "own-record",
        "--cond", "r=tails",
    )
    assert payload["purity"] == pytest.approx(1.0, abs=1e-10)
    preds = {p["measurement"]: p for p in payload["predictions"]}
    w = {o["label"]: o["probability"]["value"] for o in preds["w"]["outcomes"]}
    assert w["ok"] == pytest.approx(0.0, abs=1e-12)


def test_perspectives_collapse_prediction_half():
    payload = cli_json(
        "perspectives", "--agent", "W", "--time", "n:20", "--rule", "collapse",
        "--cond", "r=tails",
    )
    preds = {p["measurement"]: p for p in payload["predictions"]}
    w = {o["label"]: o["probability"]["value"] for o in preds["w"]["outcomes"]}
    assert w["ok"] == pytest.approx(0.5, abs=1e-10)
    frac = {o["label"]: o["probability"]["fraction"] for o in preds["w"]["outcomes"]}
    assert frac["ok"] == "1/2"


def test_perspectives_table_prints_no_negative_zero():
    # At θ = 1 one entry of this matrix is ulp-level noise below zero.
    argv = ("perspectives", "--agent", "Fbar", "--time", "n:20", "--rule", "collapse",
            "--theta", "1")
    payload = json.loads(_main_in_process(*argv, "--json"))
    entries = [x for part in payload["matrix"].values() for row in part for x in row]
    assert any(x < 0 and f"{x:+.4f}" == "-0.0000" for x in entries)
    table = _main_in_process(*argv)
    assert "-0.0000" not in table
    assert table.count("+0.0000") == sum(f"{x:+.4f}" in ("+0.0000", "-0.0000") for x in entries)


def test_perspectives_not_evaluable_exit_code():
    proc = run_cli(
        "perspectives", "--agent", "F", "--time", "n:20", "--rule", "collapse",
        "--cond", "r=heads", "--cond", "z=+1/2",
        check=False,
    )
    assert proc.returncode == 1
    assert "not-evaluable" in proc.stderr


def test_audit_golden_all_rulesets(tmp_path):
    payload = cli_json("audit", "--ruleset", "fr-mixed")
    assert payload["contradiction"] is True
    assert payload["witness"]["fraction"] == "1/12"
    assert payload["chain_conclusion"] == "impossible(halt)"

    payload = cli_json("audit", "--ruleset", "all-collapse")
    assert payload["contradiction"] is False
    by_id = {s["id"]: s for s in payload["statements"]}
    assert by_id["Fbar_02"]["status"] == "fails"
    assert by_id["Fbar_02"]["value"] == pytest.approx(0.5, abs=1e-10)

    payload = cli_json("audit", "--ruleset", "all-unitary")
    assert payload["contradiction"] is False
    by_id = {s["id"]: s for s in payload["statements"]}
    assert by_id["Fbar_02_star"]["status"] == "holds"
    assert by_id["Fbar_02_star"]["value"] == pytest.approx(0.5, abs=1e-10)

    out = tmp_path / "audit"
    run_cli("audit", "--ruleset", "fr-mixed", "--out", str(out))
    jsonschema.validate(json.loads((out / "audit.json").read_text()), SCHEMA)
    jsonschema.validate(json.loads((out / "manifest.json").read_text()), SCHEMA)


def test_exit_code_2_on_bad_flags():
    assert run_cli("exact", "--semantics", "bogus", check=False).returncode == 2
    assert run_cli("audit", "--ruleset", "bogus", check=False).returncode == 2
    assert run_cli("mc", "--rounds", "nope", check=False).returncode == 2
    assert run_cli("perspectives", "--agent", "Q", "--time", "n:10", "--rule", "collapse",
                   check=False).returncode == 2
    assert run_cli("perspectives", "--agent", "F", "--time", "n:10", "--rule", "collapse",
                   "--cond", "r_tails", check=False).returncode == 2
    assert run_cli("perspectives", "--agent", "F", "--time", "n:10", "--rule", "collapse",
                   "--cond", "r=bogus", check=False).returncode == 2
    assert run_cli(check=False).returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("perspectives", "--agent", "W", "--time", "n:20", "--rule", "own-record"),
        ("perspectives", "--agent", "F", "--time", "n:10", "--rule", "unitary",
         "--cond", "z=+1/2"),
        ("perspectives", "--agent", "Fbar", "--time", "n:20", "--rule", "own-record",
         "--cond", "r=tails", "--cond", "z=+1/2"),
        ("perspectives", "--agent", "Wbar", "--time", "n:20", "--rule", "collapse",
         "--cond", "wbar=okbar"),
    ],
)
def test_exit_code_2_on_flag_combinations(argv):
    proc = run_cli(*argv, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: ewfs")
    assert proc.stderr.splitlines()[-1].startswith("ewfs: error: ")


@pytest.mark.parametrize("cond", ["w=ok", "w=fail", "q=ok"])
def test_cond_offers_only_records_of_the_offered_checkpoints(cond):
    # w is recorded at n:40, past every --time, so the flag parser refuses it
    argv = ["perspectives", "--agent", "W", "--time", "n:30", "--rule", "unitary", "--cond", cond]
    err = io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "10000"}), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    usage, error = err.getvalue().splitlines()
    assert usage.startswith("usage: ewfs perspectives ")
    var = cond.split("=")[0]
    assert error == (
        f"ewfs perspectives: error: argument --cond: unknown record {var!r}; "
        "choose from ['r', 'wbar', 'z']"
    )
    assert "w" in perspectives.RECORDS  # statement events still read it


def test_perspectives_subsystems_echo_layout_order():
    base = ("perspectives", "--agent", "W", "--time", "n:20", "--rule", "unitary")
    by_order = [cli_json(*base, "--subsystems", names) for names in ("F,S", "S,F")]
    assert by_order[0] == by_order[1]
    assert by_order[0]["subsystems"] == ["S", "F"]
    assert "subsystems: S, F " in run_cli(*base, "--subsystems", "F,S").stdout


def test_exit_code_zero_on_success():
    assert run_cli("exact").returncode == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("mc", "--rounds", "0"),
        ("mc", "--rounds", "-5"),
        ("exact", "--theta", "nan"),
        ("exact", "--theta", "inf"),
        ("audit", "--ruleset", "fr-mixed", "--theta", "nan"),
        ("mc", "--seed", "-1"),
        ("perspectives", "--agent", "W", "--time", "n:10", "--rule", "collapse",
         "--subsystems", "S,Q"),
        ("perspectives", "--agent", "W", "--time", "n:10", "--rule", "collapse",
         "--subsystems", "S,S"),
    ],
)
def test_exit_code_2_on_out_of_range_flags(argv):
    proc = run_cli(*argv, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: ewfs ")
    error = proc.stderr.splitlines()[-1]
    assert error.startswith(f"ewfs {argv[0]}: error: argument {argv[-2]}: ")
    assert "Warning" not in proc.stderr


# Valid and malformed values of each flag, for generated invocations.  Hypothesis
# favours the first value, so the first ones make a valid invocation.
_FLAG_VALUES = {
    "--semantics": (("collapse", "unitary"), ("bogus",)),
    "--theta": (("0", "0.7", "-2.5", "1e-7"), ("nan", "inf", "-inf", "1e400", "abc", "")),
    "--rounds": (("1", "37"), ("0", "-5", "nope")),
    "--seed": (("0", "42"), ("-1", "x")),
    "--agent": (("W", "Wbar", "F", "Fbar"), ("Q",)),
    "--time": (("n:30", "n:20", "n:10", "n:00"), ("n:40",)),
    "--rule": (("collapse", "unitary", "own-record"), ("magic",)),
    "--cond": (("r=tails", "z=+1/2", "wbar=okbar", "r=heads", "z=-1/2", "wbar=failbar", "w=ok"),
               ("r_tails", "r=bogus")),
    "--subsystems": (("R,Fbar,S,F", "S,F", "F,S", "R,Fbar", "S", "Fbar,S"), ("S,Q", "S,S", "")),
    "--ruleset": (("fr-mixed", "all-collapse", "all-unitary"), ("bogus",)),
}
_COMMAND_FLAGS = {
    "exact": ("--semantics", "--theta"),
    "mc": ("--semantics", "--theta", "--rounds", "--seed"),
    "perspectives": ("--agent", "--time", "--rule", "--cond", "--cond", "--theta", "--subsystems"),
    "audit": ("--ruleset", "--theta"),
    "bogus": ("--theta",),
}
_OPTIONAL_FLAGS = ("--cond", "--subsystems", "--theta")


def _one_in(n):
    """True about once in ``n`` draws; hypothesis favours the ends of a range, so pick the middle."""
    return st.integers(0, n - 1).map(lambda i: i == n // 2)


@st.composite
def _argvs(draw):
    """A subcommand and some of its flags: each usually present, now and then malformed."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    argv = [command]
    for flag in _COMMAND_FLAGS[command]:
        # Optional flags half the time, required ones nearly always.
        if not draw(_one_in(2) if flag in _OPTIONAL_FLAGS else _one_in(10)):
            valid, malformed = _FLAG_VALUES[flag]
            argv.append(f"{flag}={draw(st.sampled_from(malformed if draw(_one_in(12)) else valid))}")
    if draw(_one_in(20)):
        argv.append("--bogus")
    return argv + ["--json"]


@settings(max_examples=40, deadline=None)
@example(argv=["perspectives", "--agent=F", "--time=n:20", "--rule=collapse", "--cond=r=heads",
               "--cond=z=+1/2", "--json"])
@example(argv=["perspectives", "--agent=W", "--time=n:20", "--rule=own-record", "--json"])
@example(argv=["audit", "--ruleset=fr-mixed", "--json"])
@given(argv=_argvs())
def test_every_invocation_keeps_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    # A wide terminal keeps argparse's usage on one line.
    with mock.patch.dict(os.environ, {"COLUMNS": "10000"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), (argv, code)
    if code == 0:
        jsonschema.validate(json.loads(out.getvalue()), SCHEMA)
        assert lines == [], argv
        return
    assert out.getvalue() == "", argv
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("not-evaluable: "), (argv, lines)
    else:
        assert len(lines) == 2, (argv, lines)
        assert lines[0].startswith("usage: ewfs"), (argv, lines)
        assert lines[1].startswith("ewfs") and ": error: " in lines[1], (argv, lines)
