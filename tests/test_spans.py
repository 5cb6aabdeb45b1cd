"""The functions whose spans the benchmark reads stay plain functions.

``bench/tracer.py`` wraps every module binding that is a
``types.FunctionType``.  A cache decorator turns a function into another
type, which the tracer passes over, so its span and every per-layer
number read from it would drop to 0 without an error.
"""
import importlib
import re
import types
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
SPAN = re.compile(r'"(lattice|groups|lsets|maximal|frattini|harness|cli)\.([a-z_]+)"')

# groups.builtin_group is left out: it is lru_cache'd with no size bound, so
# that each of its 259 names gives one shared, validated group for the life
# of the process, and the tracer records no span for it
CACHED = {"groups.builtin_group"}


def spanned_functions() -> dict:
    """Library attributes that bench/layers.py names as spans, by span name."""
    found = {}
    for layer, attr in SPAN.findall(LAYERS_PY.read_text()):
        module = importlib.import_module(f"lsubgroups.{layer}")
        name = f"{layer}.{attr}"
        if hasattr(module, attr) and name not in CACHED:
            found[name] = getattr(module, attr)
    return found


def test_spanned_functions_are_plain_functions():
    found = spanned_functions()
    assert {
        "frattini.frattini", "frattini.is_non_generator", "frattini.non_generator_points",
        "maximal.is_maximal", "maximal.enumerate_l_subgroups", "maximal.maximal_l_subgroups",
        "lsets.generate", "lsets.is_l_subgroup", "lsets.is_l_subgroup_of",
        "groups.all_subgroups", "groups.validate_group", "lattice.validate_lattice",
    } <= found.keys()
    assert [name for name, fn in found.items() if not isinstance(fn, types.FunctionType)] == []
