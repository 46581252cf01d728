"""The public API: what `binnnms` exports, and the benchmark tracer's hooks
into the live package."""

import importlib
import importlib.util
import sys
from pathlib import Path

import binnnms
import binnnms.cli  # noqa: F401  (the tracer hooks every layer, cli included)

# the list-of-BinaryVector front ends that the matrix functions replaced
REMOVED = ("AscentTrajectory", "ascend", "ascend_all", "median_shift_step",
           "compute_epsilon", "label_clusters", "WeightedSample", "inertia",
           "median_center")


def _tracing():
    """The benchmark's tracer, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_attributes():
    """Every (owner, attribute) -> value the tracer may patch: the attributes
    of each loaded binnnms module, plus the two class attributes it wraps."""
    from binnnms.binvec import BinaryVector
    from binnnms.ingest import Dataset

    values = {(mod, attr): value
              for name, mod in list(sys.modules.items())
              if mod is not None and (name == "binnnms" or name.startswith("binnnms."))
              for attr, value in vars(mod).items()}
    values[Dataset, "points"] = Dataset.points
    values[BinaryVector, "__init__"] = BinaryVector.__init__
    return values


def test_every_exported_name_resolves():
    assert len(binnnms.__all__) == len(set(binnnms.__all__))
    for name in binnnms.__all__:
        assert getattr(binnnms, name) is not None, name


def test_removed_front_ends_are_gone():
    assert not set(REMOVED) & set(binnnms.__all__)
    for layer in ("bga", "labeling", "median"):
        mod = importlib.import_module(f"binnnms.{layer}")
        assert not set(REMOVED) & set(vars(mod)), layer
    from binnnms.ingest import Dataset
    assert not hasattr(Dataset, "point")


def test_tracer_installs_and_restores_every_hook():
    # the tracer reads `binnnms.knn` and `Dataset.points` unconditionally,
    # so this fails if either goes before the tracer stops hooking them
    tracing = _tracing()
    before = _package_attributes()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = {(owner, attr): value for owner, attr, value in tracer._patches}
        assert patched
        # each hook replaced the value that was there
        for key, value in patched.items():
            assert before[key] is value
            assert getattr(*key) is not value
    finally:
        tracer.uninstall()
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
