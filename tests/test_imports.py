"""What the package imports: no HTTP module in a stub-mode process, and no
third-party module that pyproject.toml does not declare."""

from __future__ import annotations

import ast
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from conftest import FIXTURES

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
HTTP_MODULES = ("requests", "urllib3", "urllib.request", "http.client")
# distribution name in pyproject.toml -> the module it installs
MODULE_OF = {"pyyaml": "yaml"}


def test_stub_commands_load_no_http_module(tmp_path):
    workspace = tmp_path / "museum"
    shutil.copytree(FIXTURES / "museum", workspace)
    script = textwrap.dedent(f"""
        import json, sys
        from graphrag.cli import main
        cfg = sys.argv[1]
        for argv in (["index"], ["cluster"], ["retrieve", "--query", "Which artifacts date to the Warring States period?"]):
            if main([*argv, "--config", cfg]) != 0:
                sys.exit(f"{{argv[0]}} failed")
        print(json.dumps(sorted(m for m in {HTTP_MODULES!r} if m in sys.modules)))
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script, str(workspace / "config.yaml")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


def _third_party_imports() -> set[str]:
    found = set()
    for path in (SRC / "graphrag").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.update(name.split(".")[0] for name in names)
    return found - set(sys.stdlib_module_names) - {"graphrag"}


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO / "pyproject.toml").read_text("utf-8"))["project"]
    declared = set()
    for requirement in project["dependencies"]:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower()
        declared.add(MODULE_OF.get(name, name))
    assert declared == _third_party_imports() == {"numpy", "yaml"}
