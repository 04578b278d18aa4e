"""Committed analysis manifests: load, write and drift.

SimFlow (``flow_manifest.json``, the inferred kernel effects),
SimProve (``prove_manifest.json``) and SimDist (``dist_manifest.json``)
each commit the derived result of a full run next to their module.  A
run regenerates the payload and compares it with the committed file;
every difference is one drift line and fails the run.  Refresh all
three with ``repro sanitize --write-manifest``.

Drift lines name the changed leaf by its dotted key path, committed
value first: ``kernels.pkc.determinism: 'commutative' ->
'order-sensitive'``.  A key present on one side only shows as
``absent``; a whole sub-object shows as ``{...}``.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["drift", "load", "payload", "write"]

_ABSENT = object()


def payload(schema: str, **sections: dict) -> dict:
    """The committed shape of one run: ``schema``, ``version`` 1 and
    each section as a name-sorted object.  A value with ``as_dict``
    (an effect signature, a certificate) is stored as that dict."""
    out: dict = {"schema": schema, "version": 1}
    for key, section in sections.items():
        out[key] = {name: _plain(section[name]) for name in sorted(section)}
    return out


def _plain(value: object) -> object:
    as_dict = getattr(value, "as_dict", None)
    return value if as_dict is None else as_dict()


def load(path: str | Path) -> dict | None:
    """The committed manifest, or None when the file is absent.

    A file that exists but is not a JSON object raises ``ValueError``
    naming the error, so corruption is never mistaken for absence.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise ValueError(f"unreadable: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("unreadable: not a JSON object")
    return payload


def write(payload: dict, path: str | Path) -> Path:
    """Write ``payload`` as sorted, indented JSON; returns the path."""
    p = Path(path)
    p.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return p


def _show(value: object) -> str:
    if value is _ABSENT:
        return "absent"
    return "{...}" if isinstance(value, dict) else repr(value)


def _walk(old: object, new: object, key: str, out: list[str]) -> None:
    if isinstance(old, dict) and isinstance(new, dict):
        for k in sorted(set(old) | set(new)):
            sub = f"{key}.{k}" if key else str(k)
            _walk(old.get(k, _ABSENT), new.get(k, _ABSENT), sub, out)
    elif old != new:
        out.append(f"{key}: {_show(old)} -> {_show(new)}")


def drift(current: dict, committed: str | Path, family: str) -> list[str]:
    """Drift lines between a fresh payload and the committed file at
    ``committed``; empty means in sync.  ``family`` (``flow``,
    ``prove`` or ``dist``) names the manifest in a missing/unreadable
    line."""
    fix = "run `repro sanitize --write-manifest` and commit it"
    try:
        old = load(committed)
    except ValueError as exc:
        return [f"{family} manifest {exc} — {fix}"]
    if old is None:
        return [f"{family} manifest missing — {fix}"]
    out: list[str] = []
    _walk(old, current, "", out)
    return out
