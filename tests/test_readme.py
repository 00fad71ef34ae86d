"""The README's Python examples and CLI configs run as written."""

import json
import re
from pathlib import Path

import numpy as np

from scq.cli import main
from scq.datamodel import LabeledPool, SideInfo, TestSet, save_csv

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

    rng = np.random.default_rng(1)
    x = rng.standard_normal((40, 3))
    x[:10] += 4.0
    test = TestSet(features=x, side=SideInfo("position", np.arange(1, 41)))
    data = tmp_path / "data.csv"
    save_csv(LabeledPool(inliers=rng.standard_normal((200, 3))), test, data)
    argv = ["infer", str(data), "--config", str(infer_cfg), "--out", str(tmp_path / "infer")]
    assert main(argv) == 0
    for flags in ([], ["--plus"]):
        argv = ["select", str(data), "--config", str(select_cfg), *flags]
        assert main(argv + ["--out", str(tmp_path / "select")]) == 0
