"""README's command block is true: every ``ewfs …`` line runs, and every value it states holds.

Each line of the ``## Command line`` block runs in process through
``cli.main`` with ``--json`` added, in a fresh working directory so that
``--out runs/`` writes nowhere else.  A ``# comment`` beside a command states
a value; ``CLAIMS`` checks each one against that run's payload, and a comment
with no check here fails the test.  Every cell of README's paper map is
checked against the built-in audits at θ = 0 as ``ewfs audit`` prints them.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

import _engine
from ewfs import cli, reasoning
from ewfs.reasoning import BUILTIN_AUDITS, PREMISE_ID, audit, premise_result

README = Path(__file__).resolve().parents[1] / "README.md"


def _command_lines() -> list[tuple[str, str]]:
    """(command, comment) for each ``ewfs`` line of README's command block."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    out = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if command.startswith("ewfs "):
            out.append((command.strip(), comment.strip()))
    return out


def _cell(payload, wbar, w):
    (cell,) = [c for c in payload["cells"] if (c["wbar"], c["w"]) == (wbar, w)]
    return cell["probability"]


def _statement(payload, sid):
    (st,) = [s for s in payload["statements"] if s["id"] == sid]
    return st


def _exact_1_12(payload):
    assert _cell(payload, "okbar", "ok")["fraction"] == "1/12"


def _all_cells_1_4(payload):
    for wbar in ("okbar", "failbar"):
        for w in ("ok", "fail"):
            assert _cell(payload, wbar, w)["fraction"] == "1/4", (wbar, w)


def _contradiction(payload):
    assert payload["contradiction"] is True
    assert payload["witness"]["fraction"] == "1/12"


def _first_link_fails(payload):
    first = _statement(payload, "Fbar_02")
    assert first["status"] == "fails"
    assert first["value"] == pytest.approx(0.5, abs=1e-12)


def _nonzero_halt(payload):
    assert payload["chain_conclusion"] == "nonzero(halt)"
    assert payload["conclusion_value"]["fraction"] == "1/2"


# Each comment README states -> the check of its payload.
CLAIMS = {
    "the exact 1/12 table": _exact_1_12,
    "all cells 1/4, any phase": _all_cells_1_4,
    "contradiction, witness 1/12": _contradiction,
    "first link fails at 1/2": _first_link_fails,
    "nonzero(halt) at 1/2": _nonzero_halt,
}

LINES = _command_lines()


def test_the_block_holds_every_subcommand_and_every_claim_is_checked():
    assert {shlex.split(command)[1] for command, _ in LINES} == {"exact", "mc", "perspectives", "audit"}
    assert sorted(comment for _, comment in LINES if comment) == sorted(CLAIMS)


@pytest.mark.parametrize("command, comment", LINES, ids=[command for command, _ in LINES])
def test_readme_command_runs_and_its_comment_holds(command, comment, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(command)[1:] + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    if "--out" in command:
        assert (tmp_path / "runs" / "manifest.json").is_file()
    if comment:
        CLAIMS[comment](payload)


def _paper_map() -> list[dict[str, str]]:
    """README's paper map: one dict per row, keyed by the header's cells, code spans unquoted."""
    section = README.read_text().split("## Paper map", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    rows = [
        [cell.strip().replace("`", "").replace("\\|", "|") for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
        for line in lines
    ]
    header, _, *body = rows
    return [dict(zip(header, cells)) for cells in body]


def test_the_paper_map_is_what_ewfs_audit_prints(monkeypatch):
    statements = {}  # every chain statement by id, nested ones too
    for _, links in BUILTIN_AUDITS.values():
        for st in links:
            while st is not None:
                statements[st.id] = st
                st = st.inner
    seen = _engine.calls(monkeypatch, reasoning, "_perspective", record=True)
    premise_result(BUILTIN_AUDITS["fr-mixed"][0])
    premise = seen.records[-1][0]  # (speaker, checkpoint, conditioning, rule)
    results = {name: {r.statement_id: r for r in audit(name, 0.0).results} for name in BUILTIN_AUDITS}
    ids = list(dict.fromkeys(sid for by_id in results.values() for sid in by_id))
    rows = _paper_map()
    assert len(rows) == len(ids)
    for sid, row in zip(ids, rows):
        st = statements.get(sid)
        speaker, time, condition = premise[:3] if st is None else (st.speaker, st.time, st.condition)
        want = {
            "statement": sid + (" (premise)" if sid == PREMISE_ID else ""),
            "speaker": speaker,
            "checkpoint": time,
            "conditioning": ", ".join(f"{var}={value}" for var, value in condition),
            "claim": next(by_id[sid] for by_id in results.values() if sid in by_id).description,
            "pinned by": row["pinned by"],
        }
        for name, (rs, _) in BUILTIN_AUDITS.items():
            res = results[name].get(sid)
            verdict = "—" if res is None else f"{res.status} {res.value:.10f}"
            want[name] = f"{rs.rule_for(sid).kind}: {verdict}"
        assert row == want
        path, test = row["pinned by"].split("::")
        assert re.search(rf"^def {test}\(", (README.parent / "tests" / path).read_text(), re.M), row
