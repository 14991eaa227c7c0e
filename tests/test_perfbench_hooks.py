"""The benchmark tracer's hooks name real library functions, and its
install/uninstall cycle leaves the package exactly as it found it."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import pfcomplex  # noqa: E402
from perfbench.tracer import HOOKS, MODULES, Tracer  # noqa: E402

HOLDERS = [pfcomplex, *MODULES.values()]


def _rebound(snapshot):
    """Names whose module attribute is no longer the snapshotted object."""
    return [(m.__name__, k) for m, before in zip(HOLDERS, snapshot)
            for k in set(before) | set(vars(m))
            if vars(m).get(k, None) is not before.get(k, None)]


def test_every_hook_resolves_to_a_callable():
    for module, fname, _ in HOOKS:
        assert callable(getattr(MODULES[module], fname, None)), \
            f"{module}.{fname}"


def test_install_then_uninstall_restores_every_module_attribute():
    snapshot = [dict(vars(m)) for m in HOLDERS]
    tracer = Tracer()
    tracer.install()
    try:
        assert _rebound(snapshot)
    finally:
        tracer.uninstall()
    assert _rebound(snapshot) == []
