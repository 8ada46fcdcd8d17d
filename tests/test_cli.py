"""Command-line surface and exit codes."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dcnet.cli import main

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def test_validate_ok(capsys):
    assert main(["validate", str(DATA / "face.kb")]) == 0
    out = capsys.readouterr().out
    assert "8 concepts" in out and "7 relations" in out


def test_python_dash_m_runs_the_command_line():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, "-m", "dcnet", "validate", str(DATA / "face.kb")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert "8 concepts" in run.stdout


def test_validate_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.kb"
    bad.write_text("concept a\nrelation r kind=NOPE a=a b=a\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_validate_bad_id_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.kb"
    bad.write_text("concept x=y\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    assert "bad element id" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scenario",
    [
        "input eye p=0.6 as=e1\ninput nose p=0.5 as=e1\n",
        "input eye p=0.6 as=face\n",
        "relation r1 kind=ADJOINING a=face b=egg\nrelation r1 kind=ADJOINING a=egg b=face\n",
        "input eye p=0.6 as=e1\ninput nose p=0.5 as=n1\nrelation e1 kind=ADJOINING a=e1 b=n1\n",
    ],
)
def test_fit_bad_scenario_id_is_a_parse_error(tmp_path, capsys, scenario):
    path = tmp_path / "ids.scenario"
    path.write_text(scenario, encoding="utf-8")
    assert main(["fit", "--kb", str(DATA / "face.kb"), "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line ") and "internal error" not in err


@pytest.mark.parametrize(
    "scenario, line, message",
    [
        ("input eye p=0.6 as=e1\nrelation r kind=ADJOINING a=e1 b=nope\n", 2, "unknown endpoint nope"),
        ("input eye p=0.6\ninput nose p=0.5 as=eye#1\n", 2, "instance id eye#1 already taken"),
        ("input eye as=e1\ninput nose as=n1\nrelation r kind=XOR a=e1 b=n1 pba=1.0\n", 3, "fixes P(B|A)"),
        ("input eye as=e1\ninput nose as=n1\nrelation r kind=ADJOINING a=e1 b=n1 base=nope\n", 3,
         "unknown base relation nope"),
        ("input eye as=e1\ninput nose as=n1\nrelation r kind=ADJOINING a=e1 b=n1 base=r_fe\n", 3,
         "does not match base r_fe"),
        ("input eye p=0.6 as=e1\nrelation r kind=BELONG_TO a=eye b=e1\n", 2, "would make eye belong to itself"),
        ("input eye p=0.6 as=e1\nrelation r kind=ADJOINING a=e1 b=e1\n", 2, "ends on itself"),
    ],
)
def test_fit_scenario_the_task_refuses_is_a_parse_error(tmp_path, capsys, scenario, line, message):
    path = tmp_path / "refused.scenario"
    path.write_text(scenario, encoding="utf-8")
    assert main(["fit", "--kb", str(DATA / "face.kb"), "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}, column 1: ")
    assert message in err and "internal error" not in err


def test_fit_meets_expectations(tmp_path, capsys):
    trace_file = tmp_path / "run.trace"
    code = main([
        "fit",
        "--kb", str(DATA / "face.kb"),
        "--scenario", str(DATA / "face.scenario"),
        "--trace", str(trace_file),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "face1 p=1.000000000 status=collapsed" in out
    assert "egg1 p=0.500000000 status=suppressed" in out
    lines = trace_file.read_text(encoding="utf-8").splitlines()
    assert lines and all(line.startswith("step=") for line in lines)


def test_fit_expectation_failure(tmp_path, capsys):
    scenario = tmp_path / "bad.scenario"
    scenario.write_text(
        (DATA / "face.scenario").read_text(encoding="utf-8") + "expect nose1 p=0.2\n",
        encoding="utf-8",
    )
    code = main(["fit", "--kb", str(DATA / "face.kb"), "--scenario", str(scenario)])
    assert code == 1
    assert "expectation failed" in capsys.readouterr().err


def test_fit_trace_determinism(tmp_path):
    traces = []
    for name in ("a.trace", "b.trace"):
        target = tmp_path / name
        main([
            "fit",
            "--kb", str(DATA / "face.kb"),
            "--scenario", str(DATA / "face.scenario"),
            "--trace", str(target),
        ])
        traces.append(target.read_bytes())
    assert traces[0] == traces[1]


@pytest.mark.parametrize("setting", ["mode=weird", "max_hops=1.5", "k=abc", "collapse=nan"])
def test_fit_bad_config_value_is_a_parse_error(tmp_path, capsys, setting):
    scenario = tmp_path / "bad.scenario"
    scenario.write_text(
        f"config {setting}\n" + (DATA / "face.scenario").read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    code = main(["fit", "--kb", str(DATA / "face.kb"), "--scenario", str(scenario)])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_fit_session_resume(tmp_path, capsys):
    session = tmp_path / "run.session"
    code = main([
        "fit",
        "--kb", str(DATA / "face.kb"),
        "--scenario", str(DATA / "face.scenario"),
        "--session", str(session),
        "--max-fragments", "2",
    ])
    assert code == 0
    assert session.exists()
    capsys.readouterr()
    code = main([
        "fit",
        "--scenario", str(DATA / "face.scenario"),
        "--session", str(session),
    ])
    assert code == 0
    assert "face1 p=1.000000000 status=collapsed" in capsys.readouterr().out


def test_validate_unknown_state_status_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.kb"
    bad.write_text("concept x state=0.1,0.1,bogus,0\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    assert "line 1, column 25" in capsys.readouterr().err


@pytest.mark.parametrize("prefix, bad", [("processed=", "processed=zz"), ("next_step=", "next_step=x0")])
def test_fit_corrupt_session_is_a_load_error(tmp_path, capsys, prefix, bad):
    session = tmp_path / "run.session"
    args = ["--scenario", str(DATA / "face.scenario"), "--session", str(session)]
    assert main(["fit", "--kb", str(DATA / "face.kb"), *args, "--max-fragments", "2"]) == 0
    lines = session.read_text(encoding="utf-8").split("\n")
    at = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[at] = bad
    session.write_text("\n".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main(["fit", *args]) == 2
    assert f"load error at line {at + 1}" in capsys.readouterr().err


def test_fit_session_deferring_no_member_of_its_tree_is_a_load_error(tmp_path, capsys):
    """A ``defer`` line naming no concept of its instance's base tree fails the load, not the fit."""
    session = tmp_path / "run.session"
    args = ["--scenario", str(DATA / "face.scenario"), "--session", str(session)]
    assert main(["fit", "--kb", str(DATA / "face.kb"), *args, "--max-fragments", "2"]) == 0
    lines = session.read_text(encoding="utf-8").split("\n")
    at = lines.index("begin deferred") + 1
    lines.insert(at, "defer 0 nope")
    session.write_text("\n".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main(["fit", *args]) == 2
    err = capsys.readouterr().err
    assert f"load error at line {at + 1}" in err and "'defer 0 nope'" in err


def test_match_command(capsys, tmp_path):
    fragment = tmp_path / "frag.scenario"
    fragment.write_text("input eye p=1.0 as=eye1\n", encoding="utf-8")
    code = main([
        "match",
        "--kb", str(DATA / "face.kb"),
        "--fragment", str(fragment),
        "--base", "face",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "membership=1.000000000" in out
    assert "placed eye1 -> eye" in out


def test_query_command(tmp_path, capsys):
    store = tmp_path / "store.kb"
    store.write_text(
        "concept tom_age\n"
        "concept n15 value=15.0\n"
        "relation r_age kind=EQUAL a=tom_age b=n15 pba=1.0 pab=1.0\n",
        encoding="utf-8",
    )
    template = tmp_path / "query.scenario"
    template.write_text(
        "input tom_age p=1.0 as=qa\n"
        "input any p=1.0 as=qx var=true\n"
        "relation qr kind=EQUAL a=qa b=qx pba=1.0 pab=1.0\n",
        encoding="utf-8",
    )
    code = main(["query", "--kb", str(store), "--template", str(template)])
    assert code == 0
    assert "qx=n15" in capsys.readouterr().out


def test_learn_command(tmp_path, capsys):
    scenes_dir = tmp_path / "scenes"
    scenes_dir.mkdir()
    for n in range(3):
        lines = []
        for p in ("p1", "p2", "p3"):
            lines.append(f"input {p} p=1.0 as={p}_s{n}")
        ids = [f"{p}_s{n}" for p in ("p1", "p2", "p3")]
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                lines.append(f"relation adj_{a}_{b} kind=ADJOINING a={a} b={b} pba=1.0 pab=1.0")
        (scenes_dir / f"scene{n}.scenario").write_text("\n".join(lines) + "\n", encoding="utf-8")
    out_kb = tmp_path / "learned.kb"
    code = main(["learn", "--scenes", str(scenes_dir), "--out", str(out_kb)])
    assert code == 0
    out = capsys.readouterr().out
    assert "learned=1" in out
    text = out_kb.read_text(encoding="utf-8")
    assert "tree learned#1" in text


def test_exit_code_for_missing_file(capsys):
    assert main(["validate", "no-such-file.kb"]) == 2
