"""The declared dependencies match what the code imports and CI installs.

``pyproject.toml`` declares the runtime dependencies and the Python
floor; ``requirements-ci.txt`` is what every CI job installs; the
README tells users what to install.  These drifted apart once (the
README promised Python 3.9 and a dependency the code barely used), so
the three are checked against the source here:

* every third-party package imported anywhere under ``src/repro`` is a
  declared dependency (an undeclared import breaks a clean install);
* every declared dependency is one CI installs;
* the README's Python floor is ``requires-python``'s.

Parsed as text/AST — ``tomllib`` is not available on the 3.10 floor.
"""

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
PYPROJECT = (REPO / "pyproject.toml").read_text()


def _requirement_name(spec: str) -> str:
    """``"numpy>=1.24"`` -> ``"numpy"`` (normalized, extras dropped)."""
    name = re.match(r"[A-Za-z0-9_.\-]+", spec.strip()).group(0)
    return re.sub(r"[-_.]+", "-", name).lower()


def _declared_dependencies():
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", PYPROJECT, re.M | re.S)
    assert block, "pyproject.toml declares no dependencies list"
    return {
        _requirement_name(spec)
        for spec in re.findall(r'"([^"]+)"', block.group(1))
    }


def _third_party_imports():
    """``{top-level package: first file importing it}`` under src/repro."""
    found = {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, path.relative_to(REPO))
    return found


def test_every_import_is_a_declared_dependency():
    declared = _declared_dependencies()
    missing = {
        pkg: str(path)
        for pkg, path in _third_party_imports().items()
        if _requirement_name(pkg) not in declared
    }
    assert not missing, (
        f"imported but not in pyproject.toml dependencies: {missing}"
    )


def test_ci_installs_every_declared_dependency():
    lines = (REPO / "requirements-ci.txt").read_text().splitlines()
    installed = {
        _requirement_name(line)
        for line in lines
        if line.strip() and not line.lstrip().startswith("#")
    }
    assert _declared_dependencies() <= installed


def test_readme_python_floor_matches_requires_python():
    declared = re.search(
        r'^requires-python\s*=\s*">=\s*([0-9.]+)"', PYPROJECT, re.M
    )
    readme = re.search(
        r"Python\s*(?:≥|>=)\s*([0-9.]+)", (REPO / "README.md").read_text()
    )
    assert declared and readme
    assert readme.group(1) == declared.group(1)
