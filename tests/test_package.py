"""Package-wide rules, read from the source of src/pointcl."""

import ast
from pathlib import Path

import pointcl

SRC = Path(pointcl.__file__).parent

# Public top-level names that nothing in the package reads, with the reason
# each one stays.
NO_CALLER = {
    "models.FULL_ENCODER_WIDTHS": "the full-scale preset, which benchmarks/workloads.py "
                                  "builds the full-cls-ckpt workload from",
    "pointcloud.sample_points": "sample_stack's one-cloud case, which "
                                "benchmarks/instrument.py wraps by name",
    "transforms.apply_transform": "transform_stack's one-cloud case, which "
                                  "benchmarks/instrument.py wraps by name",
}


def _definitions(tree):
    """(name, statement) for each public function, class or constant that a
    module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def _reads(node):
    """Every name read as a Name or an Attribute under node."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def test_every_public_name_has_a_caller_in_src():
    """Each public top-level function, class or constant of a module is read
    somewhere in src/pointcl outside its own definition: a recursive call or
    an __all__ entry is not a caller. The scan walks the definitions, not
    __all__, which leaves some public names out."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    statements = [(node, _reads(node)) for tree in trees.values() for node in tree.body]
    unused = {f"{module}.{name}" for module, tree in trees.items()
              for name, definition in _definitions(tree)
              if not any(name in reads for node, reads in statements if node is not definition)}
    extra = sorted(unused - NO_CALLER.keys())
    assert not extra, f"public names with no caller in src/pointcl: {extra}"
    stale = sorted(NO_CALLER.keys() - unused)
    assert not stale, f"exempt names that have a caller or are gone: {stale}"
