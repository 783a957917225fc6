"""The tests' one seam onto the engine's memo: how ``perspectives`` keys and keeps its descriptions.

Each description is one kernel in ``perspectives._KERNELS``, under the
perspective's kernel key and the sorted register names, found through
``perspectives._kernel`` under the kernel key and the names as given.  A
θ-free kernel keeps its one view, for every angle, under the key ``None``;
a θ-dependent one keeps the view of its latest angle, keyed by that θ.  A
``Perspective`` is checked once per standpoint, which then keeps its kernel
key in ``perspectives._STANDPOINTS``.  Tests read kernels, views, reads,
cache sizes and call counts through these helpers only, and ``clear``
empties every one of these memos, so a change in that layout changes this
module and no test.
"""

import sys
from collections import Counter
from dataclasses import dataclass, field

from ewfs import perspectives


def kernel(p, names):
    """The kernel ``perspectives._view`` reads for the perspective's description of ``names``."""
    return perspectives._kernel(p._kernel_key, tuple(names))


def free_view(p, names):
    """The description's one view for every angle; ``None`` if it is θ-dependent."""
    key, view = kernel(p, names).latest
    return view if key is None else None


def theta_free(p, names):
    """Whether one view of the description answers every angle."""
    return free_view(p, names) is not None


def free_state(p, names):
    """A θ-free description's kept state, built now if not yet; ``None`` if θ-dependent or not evaluable."""
    view = free_view(p, names)
    return None if view is None else view.state


def kept_reads(p, names):
    """The Born reads kept for every angle, by spec: the θ-free view's; none if θ-dependent."""
    view = free_view(p, names)
    return {} if view is None else view.reads


def memo_arrays(p, names):
    """The kernel's branches and, if θ-free, its view's live branches and (if evaluable) state."""
    arrays = [kernel(p, names).branches]
    view = free_view(p, names)
    if view is not None:
        arrays.append(view.live[0])
        if view.state is not None:
            arrays.append(view.state.matrix)
    return arrays


def view_key(p, names):
    """The key of the description's kept view: ``None`` if θ-free, else the θ of its latest angle."""
    return kernel(p, names).latest[0]


def kernel_misses():
    """How many kernel lookups have missed, each one a new (kernel key, register names as given)."""
    return perspectives._kernel.cache_info().misses


def kernel_count():
    """How many kernels the engine holds: one per description."""
    return len(perspectives._KERNELS)


def standpoints():
    """The standpoints checked so far, each ``(agent, time, conditioning, rule kind)``."""
    return set(perspectives._STANDPOINTS)


def clear():
    """Empty every memo: kernels with their views and lookups, standpoints, perspectives."""
    perspectives._kernel.cache_clear()
    perspectives._KERNELS.clear()
    perspectives._STANDPOINTS.clear()
    reasoning = sys.modules.get("ewfs.reasoning")
    if reasoning is not None:
        reasoning._perspective.cache_clear()


@dataclass
class Calls:
    """What ``calls`` saw: a count per key, and each recorded call that returned, as ``(args, value)``."""

    counts: Counter = field(default_factory=Counter)
    records: list = field(default_factory=list)


def calls(monkeypatch, owner, name, key=None, *, record=False, everywhere=False, into=None):
    """Count each call of ``owner.name`` under ``key`` (``name`` by default) while ``monkeypatch`` holds.

    With ``record`` each call that returns also leaves its positional
    arguments and value.  With ``everywhere`` the function is rebound at
    every binding of it in the loaded ``ewfs`` modules, not on ``owner``
    alone.  Wraps given the same ``into`` share one ``Calls``.
    """
    seen = Calls() if into is None else into
    fn, key = getattr(owner, name), name if key is None else key

    def counted(*args, **kwargs):
        seen.counts[key] += 1
        value = fn(*args, **kwargs)
        if record:
            seen.records.append((args, value))
        return value

    sites = [(owner, name)]
    if everywhere:
        sites = [
            (module, attr)
            for module_name, module in list(sys.modules.items())
            if module_name == "ewfs" or module_name.startswith("ewfs.")
            for attr, value in list(vars(module).items())
            if value is fn
        ]
    for target, attr in sites:
        monkeypatch.setattr(target, attr, counted)
    return seen
