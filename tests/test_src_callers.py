"""Every function, method and class defined under src/cmsim is named
somewhere in src/, perfbench/ or tools/: as a name, an attribute, an
import alias or a string (perfbench's spans name the methods they wrap
as strings). A definition that only tests reach is surface the program
does not use, and goes. Dunder methods are skipped, since the language
calls them (``len``, ``==``, iteration). The listed exceptions say why
each stays. A name is matched without its class, so a method that only
tests reach passes unseen when one of the same name is used elsewhere:
any ``close`` passes, since ``TcpSender.close`` is called."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "perfbench", "tools")
EXCEPTIONS = {
    # the offline round trip of a written trace.csv: write_csv's inverse,
    # through which results are read back for audits outside a run
    "read_csv",
}


def definitions(source: str):
    """(line, name) of each function, method and class ``source``
    defines, dunder methods aside."""
    return [(node.lineno, node.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def named(source: str):
    """Every identifier ``source`` names: loads and stores of names,
    attributes, import aliases, and string constants."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
            if node.asname:
                out.add(node.asname)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_finder_sees_names_attributes_aliases_and_strings():
    source = ("from m import used_by_import as alias\n"
              "class Kept:\n"
              "    def by_attr(self): pass\n"
              "    def by_string(self): pass\n"
              "    def unused(self): pass\n"
              "    def __len__(self): return 0\n"
              "def by_name(): pass\n"
              "def caller(k):\n"
              "    by_name(); k.by_attr(); getattr(k, 'by_string'); Kept\n")
    defined = [name for _, name in definitions(source)]
    assert defined == ["Kept", "by_name", "caller", "by_attr", "by_string",
                       "unused"]
    names = named(source)
    assert {"used_by_import", "alias", "Kept", "by_name", "by_attr",
            "by_string"} <= names
    assert [n for n in defined if n not in names] == ["caller", "unused"]


def test_every_definition_in_src_has_a_caller_outside_tests():
    names = set()
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            names |= named(path.read_text())
    src = ROOT / "src" / "cmsim"
    found = [(f"{path.relative_to(src).as_posix()}:{line}", name)
             for path in sorted(src.rglob("*.py"))
             for line, name in definitions(path.read_text())
             if name not in names]
    assert [f for f in found if f[1] not in EXCEPTIONS] == []
    # an exception that is gone, or has gained a caller, leaves the list
    assert {name for _, name in found} == EXCEPTIONS
