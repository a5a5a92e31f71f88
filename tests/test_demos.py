"""Byte-exact stdout of every script in demos/.

`demo_outputs.json` maps each demo's file name to the stdout it printed
before the width engine's cut table and symmetry audit were folded into one
routine each.  Demo 01 prints `cut_matrix` output and demo 03 prints lemma1
minimizer witnesses, so this pins those bytes across a refactor.  A mismatch
is a behaviour change: fix the code, do not recapture the file.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")
with open(os.path.join(ROOT, "tests", "demo_outputs.json"), encoding="utf-8") as fh:
    EXPECTED = json.load(fh)


def test_every_demo_has_a_capture():
    assert sorted(n for n in os.listdir(DEMOS) if n.endswith(".py")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_stdout(name):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, name)],
        capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode("utf-8") == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_imports_only_public_names(name):
    with open(os.path.join(DEMOS, name), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("widthlab")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, private
