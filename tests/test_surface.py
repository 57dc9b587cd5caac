"""The functions in ``src/quadnorm`` are ones the product runs.

The product is what a user or the benchmark calls: every CLI command, the
transfer survey and the detection sweep of the harness, and the library
calls of one periods-relarith benchmark item.  The guard runs all of them
in this process under ``sys.setprofile``, which sees every Python call.  A
module-level or class-level function of the package that none of them
calls fails it, unless ALLOWLIST names the function with the reason it
stays.  An entry for a name that no longer exists, or that now runs, fails
it too, so the list only ever holds what the product does not reach.  A
module other than ``__init__`` that imports a name it never uses fails the
import check.
"""

import ast
import contextlib
import functools
import importlib
import inspect
import io
import pkgutil
import re
import sys
from pathlib import Path

import quadnorm
from quadnorm import cli, harness
from quadnorm.compose import RelativeExtension
from quadnorm.cyclicext import period_polynomial
from quadnorm.intmath import poly_discriminant
from quadnorm.quadfield import QuadInteger, make_field
from quadnorm.transfer import FiniteGroup

README = Path(__file__).resolve().parent.parent / "README.md"

TRACED = "a name that perfbench/layers.py resolves"
ACCEPTANCE = "a member that the acceptance tests read"
API = "Python API that README declares"

ALLOWLIST = {
    "formclass.all_reduced_forms": TRACED,
    "formclass.FormClass.__mul__": ACCEPTANCE,  # criterion 8 squares a class
    "harness.Report.claim": ACCEPTANCE,
    "harness.SurveyInstance.vanishing_discrepancy": ACCEPTANCE,
    "cyclicext.CyclicExtensionDescriptor.struct_constants": ACCEPTANCE,
    "compose.RelativeCharPoly.constant": ACCEPTANCE,
    "quadfield.split_roots": ACCEPTANCE,
    "formclass.polya_report": API,
    "formclass.ClassGroupStructure.identity": API,
    "formclass.ClassGroupStructure.mul": API,
    "formclass.ClassGroupStructure.rep": API,
    "cyclicext.relative_discriminant": API,
    "cyclicext.CyclicExtensionDescriptor.__repr__": API,
    "compose.composition_check": API,
    "compose.RelativeExtension.family_polynomial": API,
    "compose.RelativeExtension.period": API,
    "compose.RelativeElement.__add__": API,
    "compose.RelativeElement.__neg__": API,
    "compose.RelativeElement.height": API,
    "compose.RelativeCharPoly.degree": API,
    "quadfield.QuadraticField.__repr__": API,
    "quadfield.QuadInteger.__add__": API,
    "quadfield.QuadInteger.__hash__": API,
    "quadfield.QuadInteger.__pow__": API,
    "quadfield.QuadInteger.__repr__": API,
    "quadfield.QuadInteger.__setattr__": API,
    "quadfield.QuadInteger.__sub__": API,
    "quadfield.QuadInteger.conjugate": API,
    "quadfield.QuadInteger.divide_exact": API,
    "quadfield.QuadInteger.height": API,
    "quadfield.QuadInteger.inverse": API,
    "quadfield.QuadInteger.scale": API,
    "quadfield.QuadInteger.trace": API,
    "quadfield.ResidueFieldElement.__mul__": API,
    "transfer.augmentation_membership": API,
    "transfer.GroupRingElement.__init__": API,
    "transfer.GroupRingElement.delta": API,
    "transfer.GroupRingElement.__add__": API,
    "transfer.GroupRingElement.__sub__": API,
    "transfer.GroupRingElement.__mul__": API,
    "transfer.GroupRingElement.augmentation": API,
    "transfer.GroupRingElement.__eq__": API,
    "transfer.GroupRingElement.__hash__": API,
}


def _functions(obj) -> list:
    """The Python functions behind a module or class attribute."""
    if isinstance(obj, property):
        return [f for f in (obj.fget, obj.fset, obj.fdel) if f]
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    elif isinstance(obj, functools.cached_property):
        obj = obj.func
    if callable(obj):
        obj = inspect.unwrap(obj)  # the function under an lru_cache
    return [obj] if inspect.isfunction(obj) else []


def package_functions() -> dict:
    """'module.qualname' -> code object, for every function written at
    module or class level in the package (dataclass-made methods have no
    source file, and imported names belong to the module they came from)."""
    found = {}
    for info in pkgutil.iter_modules(quadnorm.__path__):
        module = importlib.import_module(f"quadnorm.{info.name}")
        attrs = []
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                attrs += vars(obj).values()
            else:
                attrs.append(obj)
        for obj in attrs:
            for fn in _functions(obj):
                if fn.__code__.co_filename == module.__file__:
                    found[f"{info.name}.{fn.__qualname__}"] = fn.__code__
    return found


def periods_item() -> None:
    """The library calls of one periods-relarith item: conductor 7, degree
    3, d = 10, and two elements of height 1."""
    desc = period_polynomial(7, 3, 1)
    ext = RelativeExtension(desc, make_field(10))
    alpha = ext.element([QuadInteger(10, a, b) for a, b in ((1, 0), (0, 0), (0, -1))])
    beta = ext.element([QuadInteger(10, a, b) for a, b in ((0, 0), (-1, 1), (0, 0))])
    na = ext.relative_norm(alpha)
    assert ext.relative_norm(alpha * beta) == na * ext.relative_norm(beta)
    assert ext.charpoly(alpha).coeffs[0] == -na
    assert ext.search_norm_element(na, 1).norm() == na
    assert poly_discriminant(list(desc.period_poly)) == 7**2 * desc.power_basis_index**2


def run_product(tmp_path) -> set:
    """The code objects of every Python call the product makes."""
    table = tmp_path / "c2xc4.table"
    table.write_text("\n".join(" ".join(map(str, row))
                               for row in FiniteGroup.cyclic_product([2, 4]).table))
    config = tmp_path / "scan.conf"
    config.write_text("dmax=40\nqmax=50\np=3,5\noracle_check=yes\n")
    out = tmp_path / "scan.jsonl"
    commands = (
        (0, "field", "--d", "79"),
        (0, "unit", "--d", "79"),
        (0, "classgroup", "--d", "79"),
        (0, "classgroup", "--d", "79", "--narrow"),
        (0, "ext", "--q", "7", "--p", "3"),
        (0, "normindex", "--d", "79", "--q", "7", "--p", "3"),  # 7 splits
        (0, "normindex", "--d", "79", "--q", "37", "--p", "3"),  # 37 is inert
        (0, "detect", "--d", "79", "--p", "3", "--qmax", "200"),
        (0, "--config", str(config), "scan", "--out", str(out), "--csv", str(tmp_path / "s.csv")),
        (0, "scan", "--dmax", "10", "--oracle-check"),
        (0, "stats", "--in", str(out), "--p", "3"),
        (0, "transfer", "--table-file", str(table), "--subgroup", "0,2"),
        (1, "verify", "ex79"),  # the reference claims that do not hold
        (0, "verify", "appendixa"),
        (0, "verify", "thm14", "--d", "10", "--l", "3", "--p", "3", "--qmax", "200"),
    )
    # a call answered from a cache runs no code
    for name in [n for n in sys.modules if n.startswith("quadnorm.")]:
        for obj in vars(sys.modules[name]).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    calls = set()

    def record(frame, event, arg):
        if event == "call":
            calls.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [cli.main(list(argv)) for _, *argv in commands]
            harness.transfer_survey(12)
            harness.detection_sweep(30, (3,), 100)
            periods_item()
    finally:
        sys.setprofile(previous)
    assert codes == [want for want, *_ in commands]
    return calls


def test_every_function_runs_or_is_allowlisted(tmp_path):
    functions = package_functions()
    calls = run_product(tmp_path)
    unreached = sorted(n for n, code in functions.items() if code not in calls)
    assert [n for n in unreached if n not in ALLOWLIST] == [], (
        "functions the product never calls: delete them, or allowlist them with a reason"
    )
    stale = sorted(n for n in ALLOWLIST if n not in unreached)
    assert stale == [], "allowlist entries that no longer exist or that now run"


def test_readme_lists_the_declared_api():
    """README's "Python API" section names exactly the API entries: one
    bullet per function, or per class with its members after a colon."""
    section = README.read_text(encoding="utf-8").split("\n## Python API\n")[1].split("\n## ")[0]
    declared = set()
    for owner, members in re.findall(r"^- `([\w.]+)`(?::(.*))?$", section, re.M):
        names = re.findall(r"`(\w+)`", members)
        if names:
            declared.update(f"{owner}.{m}" for m in names)
        else:
            declared.add(owner)
    assert declared == {n for n, reason in ALLOWLIST.items() if reason == API}


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (``__future__`` aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in read)


def test_unused_imports_are_caught():
    source = "import os, sys\nfrom math import gcd as g, isqrt\nprint(sys.argv, isqrt(4))\n"
    assert unused_imports(source) == ["g", "os"]


def test_every_module_uses_what_it_imports():
    package = Path(quadnorm.__file__).parent
    unused = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        and (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}
