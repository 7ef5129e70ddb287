"""Run the tier-1 tests under several Python interpreters, offline.

    python tools/matrix.py PYTHON [PYTHON ...]

Run it from the root of a checkout, with an interpreter that has pytest
and hypothesis installed.  The script links pytest, hypothesis and the
distributions they require into one temporary directory and puts that
directory and ``src`` on PYTHONPATH.  Then it runs the tier-1 command
(``python -m pytest -q --continue-on-collection-errors``) under each
PYTHON, and prints one line per interpreter: passed, failed, or not run
when that version requires a distribution that neither this interpreter
nor PYTHON has (pytest and hypothesis need exceptiongroup and tomli
below 3.11).  Bytecode goes to the temporary directory, so nothing is
written next to the linked packages.  Exits 1 if a run failed.
"""

from __future__ import annotations

import importlib.metadata as metadata
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from packaging.requirements import Requirement

ROOTS = ("pytest", "hypothesis")
# Prints the version of the interpreter it runs in, then the names in
# argv that it has no distribution for.
PROBE = """
import importlib.metadata as m, sys
def missing(name):
    try:
        m.distribution(name)
    except m.PackageNotFoundError:
        return True
    return False
print("%d.%d.%d" % sys.version_info[:3])
print(" ".join(filter(missing, sys.argv[1:])))
"""


def closure(version: str) -> list:
    """The distribution names ROOTS require under Python ``version``, in
    the order first met, with extras left out."""
    env = {"python_version": ".".join(version.split(".")[:2]), "python_full_version": version, "extra": ""}
    names, todo = [], list(ROOTS)
    while todo:
        name = todo.pop(0)
        if name in names:
            continue
        names.append(name)
        if not installed(name):
            continue  # nothing to link; main asks PYTHON for it
        for text in metadata.requires(name) or []:
            req = Requirement(text)
            if req.marker is None or req.marker.evaluate(env):
                todo.append(req.name)
    return names


def installed(name: str) -> bool:
    try:
        metadata.distribution(name)
    except metadata.PackageNotFoundError:
        return False
    return True


def link(names, into: Path):
    """Symlink every top-level module, package and metadata directory of
    each installed distribution in ``names`` into ``into``."""
    for name in filter(installed, names):
        dist = metadata.distribution(name)
        tops = {f.parts[0] for f in dist.files or ()} - {"__pycache__"}
        for top in sorted(t for t in tops if not t.startswith("..")):
            target = into / top
            if not target.exists():
                target.symlink_to(Path(dist.locate_file(top)))


def probe(python: str, names) -> tuple:
    out = subprocess.run([python, "-c", PROBE, *names], capture_output=True, text=True, check=True)
    version, missing = (out.stdout.splitlines() + [""])[:2]
    return version, missing.split()


def main(argv) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    root = Path.cwd()
    if not (root / "src" / "sqtile" / "__init__.py").is_file():
        print("matrix: run from the root of a checkout", file=sys.stderr)
        return 2
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        site = Path(tmp) / "site"
        site.mkdir()
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(root / "src"), str(site)]),
            PYTHONPYCACHEPREFIX=str(Path(tmp) / "pycache"),
        )
        for python in argv:
            version, _ = probe(python, ())
            names = closure(version)
            link(names, site)
            absent = [n for n in names if not installed(n)]
            missing = probe(python, absent)[1] if absent else []
            if missing:
                print(f"{version}: not run (needs {', '.join(missing)})")
                continue
            run = subprocess.run(
                [python, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                cwd=root, env=env, capture_output=True, text=True,
            )
            summary = (run.stdout.strip().splitlines() or ["no output"])[-1].strip("= ")
            failed |= run.returncode != 0
            print(f"{version}: {'passed' if run.returncode == 0 else 'failed'} ({summary})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
