"""The benchmark's tracer finds every name it wraps and puts each one back.

perfbench/spans.py wraps package functions and methods by name, and methods
through their own class's __dict__.  It is loaded here read-only, so a
refactor that moves or renames one of those names fails this suite, not
only the benchmark's own tests.
"""

import importlib.util
from pathlib import Path

import qci_hochschild

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    """Every package module and every class defined in one, by name."""
    modules = [m for m in vars(qci_hochschild).values() if type(m) is type(qci_hochschild)]
    out = {qci_hochschild.__name__: vars(qci_hochschild)}
    for module in modules:
        out[module.__name__] = vars(module)
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                out[f"{module.__name__}.{name}"] = vars(value)
    return out


def snapshot():
    return {key: dict(space) for key, space in namespaces().items()}


def test_tracer_wraps_every_named_hook_and_uninstall_restores_it():
    spans = load_spans()
    for layer in spans.LAYERS:  # the CLI is not imported by the package root
        importlib.import_module(f"qci_hochschild.{layer}")
    before = snapshot()
    tracer = spans.Tracer()
    try:
        tracer.install(qci_hochschild)
        during = snapshot()
        for layer, names in spans._SPANS.items():
            key = f"qci_hochschild.{layer}"
            for attr in names:
                assert during[key][attr].__wrapped__ is before[key][attr], (layer, attr)
        for (layer, cls), names in {**spans._METHOD_SPANS, **spans._METHOD_COUNTS}.items():
            key = f"qci_hochschild.{layer}.{cls}"
            for attr in names:
                assert during[key][attr] is not before[key][attr], (layer, cls, attr)
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    for key, space in before.items():
        assert after[key].keys() == space.keys(), key
        changed = [name for name, value in space.items() if after[key][name] is not value]
        assert not changed, (key, changed)
