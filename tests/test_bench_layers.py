"""scripts/bench_layers.py's span split: the layers of a batch are timed in
the real harness.batch, which reports as it does unspanned."""

import contextlib
import functools
import importlib.util
import io
import json
import os
import sys

import pytest

from multicolor import harness, oracle
from multicolor.adversary import hex_chain, path_family, random_cancel_instance

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def bench_layers(monkeypatch):
    """scripts/bench_layers.py as a module, with perfbench on the path for
    its calibrate."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    spec = importlib.util.spec_from_file_location(
        "bench_layers", os.path.join(ROOT, "scripts", "bench_layers.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """{(owner, name): object} of every multicolor module binding and of the
    function of every oracle.Optimum cached property."""
    out = {(name, attr): obj for name, mod in list(sys.modules.items())
           if name == "multicolor" or name.startswith("multicolor.")
           for attr, obj in vars(mod).items()}
    out.update({("Optimum", name): prop.func for name, prop in vars(oracle.Optimum).items()
                if isinstance(prop, functools.cached_property)})
    return out


def assert_restored(before):
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key, obj in before.items() if after[key] is not obj] == []


def tiny_manifest(tmp_path):
    """A manifest of every player, a cancel instance and one error row."""
    files = {"path.json": path_family(40)[2], "hex.json": hex_chain(1, (0,)),
             "cancel.json": random_cancel_instance(seed=5, n_nodes=6, n_requests=20)}
    for name, instance in files.items():
        harness.save_instance(instance, str(tmp_path / name))
    runs = [{"instance": "path.json", "algo": algo} for algo in ("greedy_opt", "trivial", "fpa")]
    runs.append({"instance": "path.json", "algo": "greedy_truncated", "b": 2})
    runs += [{"instance": "hex.json", "algo": algo} for algo in ("fpa", "hex43", "trivial")]
    runs.append({"instance": "cancel.json", "algo": "greedy_cancel"})
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_span_batch_reports_as_a_plain_batch_with_every_layer_timed(bench_layers, tmp_path):
    import calibrate

    path = tiny_manifest(tmp_path)
    plain = io.StringIO()
    assert not harness.batch(harness.load_manifest(path), plain, str(tmp_path))
    assert "error: fpa needs a hexagonal graph, got path" in plain.getvalue()
    before = bindings()
    spanned = io.StringIO()
    layers = bench_layers._layers(path, calibrate, spanned)
    assert spanned.getvalue() == plain.getvalue()
    assert [layer for layer in bench_layers.LAYERS if not layers[layer]["cpu_s"] > 0] == []
    assert_restored(before)


def test_every_generation_step_is_timed(bench_layers):
    import calibrate
    import workloads

    before, builders = bindings(), dict(workloads._BUILDERS)
    steps = bench_layers._generation(calibrate)
    assert [step for step in bench_layers.GENERATION if not steps[step]["cpu_s"] > 0] == []
    assert_restored(before)
    assert workloads._BUILDERS == builders


def test_a_function_that_no_module_binds_stops_the_bench(bench_layers):
    def unbound():
        pass

    with contextlib.ExitStack() as stack, pytest.raises(SystemExit, match="unbound"):
        bench_layers._rebind(stack, unbound, None)
