"""The package's public names and its documented example."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import sqtile

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_surface_resolves_and_readme_example_runs():
    for info in pkgutil.iter_modules(sqtile.__path__):
        module = importlib.import_module(f"sqtile.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"sqtile.{info.name}.__all__ lists missing {name!r}"
            # the CLI's names stay in sqtile.cli, so the root never loads it
            exported = getattr(sqtile, name, None) is getattr(module, name)
            assert exported != (info.name == "cli"), f"sqtile.{name} against sqtile.{info.name}.{name}"
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.S)[1]
    exec(compile(example, str(README), "exec"), {})
