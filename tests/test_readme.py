"""The README's Python examples and CLI configs run as written."""

import json
import re
from pathlib import Path

import numpy as np

from helpers import count_calls
from scq import cli
from scq.bench import METHOD_KEYS
from scq.cli import main
from scq.datamodel import LabeledPool, SideInfo, TestSet, save_csv
from scq.scoring import fit_score

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_python_blocks_run():
    # in order, in one namespace
    python = blocks("python")
    assert len(python) >= 3
    namespace = {}
    for block in python:
        exec(compile(block, str(README), "exec"), namespace)


def write_data(tmp_path) -> str:
    rng = np.random.default_rng(1)
    x = rng.standard_normal((40, 3))
    x[:10] += 4.0
    test = TestSet(features=x, side=SideInfo("position", np.arange(1, 41)))
    data = tmp_path / "data.csv"
    save_csv(LabeledPool(inliers=rng.standard_normal((200, 3))), test, data)
    return str(data)


def test_cli_configs_run(tmp_path):
    simulate, infer, select = (json.loads(block) for block in blocks("json"))
    assert "synthetic" in simulate and "classifier" in infer and "toolbox" in select
    sim_cfg, infer_cfg = tmp_path / "sim.json", tmp_path / "infer.json"
    select_cfg = tmp_path / "select.json"
    sim_cfg.write_text(json.dumps(simulate))
    infer_cfg.write_text(json.dumps(infer))
    select_cfg.write_text(json.dumps(select))
    argv = ["simulate", "--config", str(sim_cfg), "--reps", "2", "--threads", "1"]
    assert main(argv + ["--out", str(tmp_path / "sim")]) == 0

    data = write_data(tmp_path)
    argv = ["infer", str(data), "--config", str(infer_cfg), "--out", str(tmp_path / "infer")]
    assert main(argv) == 0
    for flags in ([], ["--plus"]):
        argv = ["select", str(data), "--config", str(select_cfg), *flags]
        assert main(argv + ["--out", str(tmp_path / "select")]) == 0


def test_methods_table_matches_method_keys():
    rows = re.findall(r"^\| `([\w-]+)` \| (.*) \|$", README.read_text(encoding="utf-8"), re.M)
    assert {pipeline: tuple(re.findall(r"`(\w+)`", keys)) for pipeline, keys in rows} == METHOD_KEYS


def test_top_level_keys_match_the_reader():
    text = " ".join(README.read_text(encoding="utf-8").split())
    lists = [
        (cli.SIMULATE, r"top level of a `simulate` config takes (.+?);"),
        (cli.INFER, r"top level of an `infer` config takes (.+?), and that of"),
        (cli.SELECT, r"and that of a `select` config (.+?);"),
    ]
    for table, pattern in lists:
        assert re.findall(r"`(\w+)`", re.search(pattern, text).group(1)) == list(table)


def mutations(doc):
    """Copies of ``doc`` with one value, at any depth, of another JSON kind, or one unknown key."""
    if isinstance(doc, dict):
        yield {**doc, "unknown": 1}
    elif not isinstance(doc, list):
        return
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        swaps = ["x", True, [], {}] + ([2.5] if type(value) is int else [])
        for new in swaps + list(mutations(value)):
            copy = doc.copy()
            copy[key] = new
            yield copy


def test_mistyped_readme_configs_fail_before_any_fit(tmp_path, monkeypatch, capsys):
    # each mutant runs, fails at run time, or exits 1 with an error printed
    # before any fit; no exception escapes main
    simulate, infer, select = (json.loads(block) for block in blocks("json"))
    data, cfg = write_data(tmp_path), tmp_path / "cfg.json"
    fits = count_calls(monkeypatch, fit_score)
    commands = [
        (simulate, ["simulate", "--reps", "2", "--threads", "1"]),
        (infer, ["infer", data]),
        (select, ["select", data]),
        (select, ["select", data, "--plus"]),
    ]
    for doc, argv in commands:
        for bad in mutations(doc):
            cfg.write_text(json.dumps(bad))
            fits.clear()
            rc = main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            if rc == 1:
                assert err.startswith("error:") and not fits, (argv[0], bad, err)
