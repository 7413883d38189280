"""The paired A/B script at smoke size: a tree against itself writes equal
reports, and a tree whose reports differ is named."""

import importlib.util
import os
import re
import shutil
import sys

import pytest

import spatial_outliers
from spatial_outliers import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_script():
    path = os.path.join(ROOT, "scripts", "ab_cli.py")
    spec = importlib.util.spec_from_file_location("ab_cli", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["points-combined", "points-classical", "polygon-compare"])
def test_a_tree_against_itself_writes_equal_reports(workload, capsys):
    ab_cli = _load_script()
    code = ab_cli.main([ROOT, ROOT, "--workload", workload, "--pairs", "3", "--smoke"])
    out = capsys.readouterr().out
    assert code == 0
    assert re.fullmatch(
        rf"workload {workload}: median ratio \d+\.\d{{4}} over 3 pairs, "
        r"change lower in [0-3]; report bytes equal\n", out)
    # the modules this process imported are back in place
    assert sys.modules["spatial_outliers"] is spatial_outliers
    assert sys.modules["spatial_outliers.cli"] is cli


def test_reports_that_differ_are_named(tmp_path, capsys):
    tree = tmp_path / "tree"
    shutil.copytree(os.path.join(ROOT, "src"), tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    fileio = tree / "src" / "spatial_outliers" / "fileio.py"
    text = fileio.read_text(encoding="utf-8")
    assert 'return f"{value:.6f}"' in text
    fileio.write_text(text.replace('return f"{value:.6f}"', 'return f"{value:.5f}"'),
                      encoding="utf-8")
    ab_cli = _load_script()
    argv = [ROOT, str(tree), "--workload", "polygon-compare", "--pairs", "1", "--smoke"]
    code = ab_cli.main(argv)
    assert code == 1
    assert capsys.readouterr().out.endswith("; report bytes DIFFER\n")
