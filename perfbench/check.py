"""Output check: a job passes when it matches the stored reference and its
invariants hold.

A job's observed result is a dict with the exit code, the stdout text, the
"wrote N boxes" line from stderr (with the scratch directory written as
``{tmp}``) and a SHA-256 digest of each file it wrote.  References hold the
same dict, recorded at the seed commit for the default seed; jobs that a
seed does not reach (other scan seeds, other random weight vectors) are
checked by their invariants alone.

Stdout that parses as JSON is compared value by value: strings (so exact
``p/q`` fractions), integers, booleans and nulls must be equal, floats may
differ by at most ``REL_TOL`` relative.
"""

from __future__ import annotations

import json
import math
import re

REL_TOL = 1e-12

_WROTE = re.compile(r"^wrote (\d+) boxes to ", re.MULTILINE)


def floats_close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def value_problems(ref: object, got: object, where: str = "$") -> list[str]:
    """Differences between two decoded JSON values, one message each."""
    if isinstance(ref, bool) or isinstance(got, bool) or ref is None or got is None:
        same = type(ref) is type(got) and ref == got
    elif isinstance(ref, float) and isinstance(got, float):
        same = floats_close(ref, got)
    elif isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{where}: keys {sorted(ref)} != {sorted(got)}"]
        return [p for k in ref for p in value_problems(ref[k], got[k], f"{where}.{k}")]
    elif isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{where}: length {len(ref)} != {len(got)}"]
        return [
            p for i, (a, b) in enumerate(zip(ref, got))
            for p in value_problems(a, b, f"{where}[{i}]")
        ]
    else:
        same = type(ref) is type(got) and ref == got
    return [] if same else [f"{where}: {got!r} != reference {ref!r}"]


def _decode(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def reference_problems(ref: dict, got: dict) -> list[str]:
    """Differences between a recorded result and an observed one."""
    problems = []
    for field in ("exit", "wrote", "files"):
        if ref[field] != got[field]:
            problems.append(f"{field}: {got[field]!r} != reference {ref[field]!r}")
    problems += value_problems(_decode(ref["stdout"]), _decode(got["stdout"]), "stdout")
    return problems


def invariant_problems(expect: tuple[tuple[str, object], ...], got: dict) -> list[str]:
    """Checks that hold on every seed.

    ``boxes`` is the count in the "wrote N boxes" line; ``all_non_doubling``
    also requires every vector of a grid sweep to be non-doubling; every
    other name is a top-level field of the JSON stdout.
    """
    if got["exit"] != 0:
        return [f"exit code {got['exit']}"]
    doc = _decode(got["stdout"])
    problems = []
    for name, want in expect:
        if name == "boxes":
            match = _WROTE.match(got["wrote"] or "")
            have = int(match.group(1)) if match else None
        elif not isinstance(doc, dict):
            return ["stdout is not a JSON object"]
        else:
            have = doc.get(name)
            if name == "all_non_doubling" and have is True:
                verdicts = {r.get("verdict") for r in doc.get("results", [])}
                have = verdicts == {"NonDoublingCertificate"}
        if have != want:
            problems.append(f"{name}: {have!r}, expected {want!r}")
    return problems
