"""Every field of the records that cross the simulated wire (packets, the
acks they carry) and of the feedback reports built from them is read
somewhere under src/. A field that is only ever written costs work per
packet and tells nothing. A read is an attribute load of the field's
name, on any object: the sweep matches names, not types."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# class name -> module under src/cmsim that defines it
WIRE_CLASSES = {
    "Packet": "sim.py",
    "AppAck": "transport/feedback.py",
    "FeedbackReport": "core.py",
}


def fields_of(source: str, cls: str):
    """Names of the annotated fields in the body of class ``cls``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            return [st.target.id for st in node.body
                    if isinstance(st, ast.AnnAssign)
                    and isinstance(st.target, ast.Name)]
    raise LookupError(f"no class {cls}")


def attributes_read(sources):
    """Every attribute name loaded (not stored or deleted) in sources."""
    return {node.attr for source in sources
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def unread_fields(classes, sources):
    """``Class.field`` of each field in classes, a {name: source} map,
    that no source reads."""
    read = attributes_read(sources)
    return sorted(f"{cls}.{name}" for cls, source in classes.items()
                  for name in fields_of(source, cls) if name not in read)


def test_finder_reports_fields_only_written():
    model = ("from dataclasses import dataclass\n"
             "@dataclass\n"
             "class Rec:\n"
             "    a: int\n"
             "    b: int = 0\n"
             "    c: int = 0\n"
             "    def total(self) -> int:\n"
             "        return self.a\n")
    user = ("def f(rec, other):\n"
            "    rec.b = 1\n"       # a store is no read
            "    del rec.c\n"       # nor is a delete
            "    return other.c.b\n")
    assert unread_fields({"Rec": model}, [model]) == ["Rec.b", "Rec.c"]
    assert unread_fields({"Rec": model}, [model, user]) == []


def test_every_wire_field_is_read_in_src():
    src = ROOT / "src" / "cmsim"
    classes = {cls: (src / module).read_text()
               for cls, module in WIRE_CLASSES.items()}
    sources = [path.read_text() for path in sorted(src.rglob("*.py"))]
    assert unread_fields(classes, sources) == []
