import importlib
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
# traced methods, looked up on their class: metric name -> (class, attribute)
METHODS = {"polyval.SparsePoly.mul": ("SparsePoly", "__mul__")}


def test_every_traced_name_is_a_public_function():
    # The benchmark's tracer wraps the public functions each schurkit
    # module defines and drops the metrics of a name it cannot find, so a
    # renamed or private function would leave a traced run short of the
    # declared `L.F.calls` metrics without failing it.
    per_layer = json.loads(BENCHMARK.read_text())["per_layer"]
    traced = [m["name"][: -len(".calls")] for m in per_layer if m["name"].endswith(".calls")]
    assert traced
    for name in traced:
        layer, _, attr = name.partition(".")
        mod = importlib.import_module(f"schurkit.{layer}")
        if name in METHODS:
            cls_name, method = METHODS[name]
            assert callable(getattr(vars(mod).get(cls_name), method, None)), name
            continue
        fn = vars(mod).get(attr)
        assert not attr.startswith("_") and callable(fn) and not isinstance(fn, type), name
        assert fn.__module__ == mod.__name__, name
