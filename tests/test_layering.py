"""The reference layer stays outside the pipeline: no library module but
the CLI imports verify.py, so a pipeline run never executes an oracle."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qktree"


def imports_verify(path):
    """Whether a source file imports the verify module in any form."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        if any("verify" in name.split(".") for name in names):
            return True
    return False


def test_only_the_cli_imports_verify():
    modules = sorted(SRC.glob("*.py"))
    assert {p.name for p in modules} >= {"cli.py", "verify.py", "carving.py"}
    assert [p.name for p in modules if imports_verify(p)] == ["cli.py"]
