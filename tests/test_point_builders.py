"""No model method builds a ``Point``. The evaluators and closed forms of a
``Space`` subclass in ``spaces.py`` work on raw coordinates, and
``GeodesicRef.point_at`` is the one place a geodesic's coordinates become a
validated ``Point``; ``random_point`` alone returns one. A builder is
``Point`` itself, ``point_at``, or a module-level function of ``spaces.py``
annotated to return a ``Point``, such as ``point`` or ``tree_vertex``."""

import ast
import inspect
from pathlib import Path

from metriclab import spaces

MODELS = {name for name, obj in vars(spaces).items()
          if inspect.isclass(obj) and issubclass(obj, spaces.Space)}


def _point_builds(source):
    """(class.method, builder) for each call of a builder inside a method,
    closures included, of a class in MODELS."""
    tree = ast.parse(source)
    builders = {"Point", "point_at"} | {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        and isinstance(node.returns, ast.Name) and node.returns.id == "Point"}
    found = []
    for cls in tree.body:
        if not (isinstance(cls, ast.ClassDef) and cls.name in MODELS):
            continue
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in builders:
                        found.append((f"{cls.name}.{method.name}", name))
    return found


def test_the_scan_sees_a_point_built_in_a_closure():
    src = ("def point(space, c) -> Point:\n"
           "    return Point(space, c)\n"
           "class RealLine:\n"
           "    def ray(self, base, sgn):\n"
           "        def at(t):\n"
           "            return Point(self, base + sgn * t)\n"
           "        return at\n"
           "    def busemann_closed(self, ray, y):\n"
           "        return ray.point_at(0).coords - point(self, y).coords\n")
    assert _point_builds(src) == [("RealLine.ray", "Point"),
                                  ("RealLine.busemann_closed", "point_at"),
                                  ("RealLine.busemann_closed", "point")]


def test_only_random_point_builds_a_point_in_a_model():
    hits = _point_builds(Path(spaces.__file__).read_text())
    assert [h for h in hits if not h[0].endswith(".random_point")] == []
    # the random_point builders are still there, so the scan still sees them
    assert ("MaxProduct.random_point", "Point") in hits
    assert ("NormedSpace.random_point", "point") in hits
