"""Under src/, only the package's __init__, which re-exports it, and
sim.py, which defines it, use ``sim.Path``. Clients and the harness
builders hold their ``Link`` itself; the one-link ``Path`` stays only for
the benchmark's own wiring (ROADMAP item 17), so no other module may come
to depend on it again. A use is an import of ``Path`` from the sim module
or the package, under any spelling, or a load of the attribute ``Path``
on any object."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {"__init__.py", "sim.py"}
# ``from .. import Path`` has no module name
SIM_MODULES = {None, "sim", "cmsim", "cmsim.sim"}


def uses_path(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module in SIM_MODULES \
                and any(alias.name == "Path" for alias in node.names):
            return True
        if isinstance(node, ast.Attribute) and node.attr == "Path" \
                and isinstance(node.ctx, ast.Load):
            return True
    return False


def test_finder_reports_imports_and_attribute_loads_of_sim_path():
    users = [
        "from ..sim import EventLoop, Path\n",
        "from cmsim.sim import Path as P\n",
        "from .. import Path\n",
        "from cmsim import sim\nlink = sim.Path([x])\n",
        "import cmsim\nf = cmsim.Path\n",
    ]
    others = [
        "from ..sim import EventLoop, Link\n",
        "from pathlib import Path\nroot = Path('.')\n",
        "from . import sim\nlink = sim.Link(loop, 1e6, 0.0)\n",
    ]
    assert [uses_path(s) for s in users] == [True] * len(users)
    assert [uses_path(s) for s in others] == [False] * len(others)


def test_only_the_package_init_and_sim_use_path_in_src():
    src = ROOT / "src" / "cmsim"
    users = sorted(path.relative_to(src).as_posix()
                   for path in src.rglob("*.py")
                   if uses_path(path.read_text()))
    assert set(users) <= ALLOWED, users
