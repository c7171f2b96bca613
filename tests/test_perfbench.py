"""The benchmark's span recorder patches package attributes by name, so
every name it reads must stay in the package."""

import importlib
import importlib.util

from tailgraph import simulate


def test_span_targets_exist(pytestconfig):
    path = pytestconfig.rootpath / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{mod}.{attr}" for mod, attr, _, _ in spans.TARGETS
               if not callable(getattr(importlib.import_module(f"tailgraph.{mod}"),
                                       attr, None))]
    assert missing == []
    # read by its floor-entry counter
    assert isinstance(simulate.INVERT_TOL, float)
    assert isinstance(simulate._X_FLOOR, float)
