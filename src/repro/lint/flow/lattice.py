"""Taint lattice for the flow checkers: kinds, sources, sanitizers.

A taint is a ``(kind, origin)`` pair — the origin is a human-readable
witness ("time.perf_counter() in repro.verify.fuzz.run_fuzz") carried
along so findings can name the source even when it lives modules away
from the sink.  Parameter taints ``("param", "<i>")`` stand for "whatever
the caller passes as argument *i*" and are what make function
summaries composable.

Determinism kinds (RPL050–053) poison bit-reproducible state:

* ``wall_clock`` — ``time.time``/``monotonic``/``perf_counter`` and
  datetime "now" reads;
* ``rng`` — unseeded randomness (``random.*``, legacy
  ``numpy.random.*``, ``secrets``, ``uuid.uuid4``, ``os.urandom``);
* ``hash_seed`` — ``id()`` and ``hash()`` values, which change per
  process (CPython address layout, ``PYTHONHASHSEED``);
* ``set_order`` — values whose *order* came from iterating a set.

Wire kinds (RPL080–082) poison the public ``/v1`` surface:

* ``exc_text`` — text of a caught exception that is not one of the
  :attr:`LintConfig.wire_safe_exceptions` (whose messages are crafted
  *for* the wire);
* ``fs_path`` — filesystem paths (``__file__``, ``os.getcwd``,
  ``os.path`` joins, ``tempfile``);
* ``env_config`` — ``os.environ`` / ``os.getenv`` reads.

Sanitizers are where taint legitimately dies: ``sorted()`` (and
``min``/``max``/``len``) normalize away ``set_order``; numeric
conversions cannot carry text, so they drop the wire kinds; and the
functions named in :attr:`LintConfig.wire_sanitizers`
(``public_message``) scrub all wire kinds by contract.  Note what is
*not* a source: calling an injected clock (``self._clock()``) — the
sanctioned determinism pattern is precisely to route time through an
injectable callable, and call-site taint cannot see through it.
"""

from __future__ import annotations

__all__ = [
    "DET_KINDS",
    "WIRE_KINDS",
    "PARAM",
    "Taint",
    "param_taint",
    "param_index",
    "source_kind",
    "DET_RULE_BY_KIND",
    "WIRE_RULE_BY_KIND",
    "KIND_LABELS",
    "ORDER_SANITIZERS",
    "NUMERIC_SANITIZERS",
]

#: a taint fact: ``(kind, origin)``; kind ``"param"`` carries the
#: argument index in the origin slot
Taint = tuple[str, str]

PARAM = "param"
DET_KINDS = frozenset({"wall_clock", "rng", "hash_seed", "set_order"})
WIRE_KINDS = frozenset({"exc_text", "fs_path", "env_config"})

DET_RULE_BY_KIND = {
    "wall_clock": "RPL050",
    "rng": "RPL051",
    "hash_seed": "RPL052",
    "set_order": "RPL053",
}
WIRE_RULE_BY_KIND = {
    "exc_text": "RPL080",
    "fs_path": "RPL081",
    "env_config": "RPL082",
}
KIND_LABELS = {
    "wall_clock": "wall-clock value",
    "rng": "unseeded-RNG value",
    "hash_seed": "id()/hash() value",
    "set_order": "set-iteration order",
    "exc_text": "exception text",
    "fs_path": "filesystem path",
    "env_config": "environment/config value",
}

_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "date.today",
}
_RNG_CALLS = {
    "os.urandom",
    "uuid.uuid4",
    "uuid.uuid1",
}
_RNG_PREFIXES = ("random.", "secrets.", "np.random.", "numpy.random.")
_FS_PATH_CALLS = {
    "os.getcwd",
    "os.path.abspath",
    "os.path.realpath",
    "os.path.expanduser",
    "os.path.join",
    "tempfile.gettempdir",
    "tempfile.mkdtemp",
    "tempfile.mkstemp",
    "tempfile.NamedTemporaryFile",
}
_ENV_CALLS = {"os.getenv", "os.environ.get"}
_HASH_BUILTINS = {"id", "hash"}

#: builtins that return an order-normalized or order-free view — they
#: strip ``set_order`` and nothing else
ORDER_SANITIZERS = frozenset({"sorted", "len", "min", "max"})
#: numeric conversions cannot carry text: they strip the wire kinds
#: (``int(time.time())`` is still nondeterministic, so det kinds stay)
NUMERIC_SANITIZERS = frozenset({"int", "float", "bool", "abs", "round"})


def param_taint(index: int) -> Taint:
    return (PARAM, str(index))


def param_index(taint: Taint) -> int | None:
    return int(taint[1]) if taint[0] == PARAM else None


def source_kind(dotted: str | None, is_bare_name: bool) -> str | None:
    """Taint kind produced by calling ``dotted``, if it is a source.

    ``is_bare_name`` distinguishes builtin calls (``id(x)``) from
    method calls that merely end in the same word (``pool.id(x)``).
    """
    if dotted is None:
        return None
    if dotted in _WALL_CLOCK_CALLS:
        return "wall_clock"
    if dotted in _RNG_CALLS or any(
        dotted.startswith(p) for p in _RNG_PREFIXES
    ):
        # seeded constructions are fine; everything else under the
        # random namespaces draws from process-global state
        if dotted.rsplit(".", 1)[-1] in ("seed", "Random", "default_rng"):
            return None
        return "rng"
    if dotted in _FS_PATH_CALLS:
        return "fs_path"
    if dotted in _ENV_CALLS:
        return "env_config"
    if is_bare_name and dotted in _HASH_BUILTINS:
        return "hash_seed"
    return None
